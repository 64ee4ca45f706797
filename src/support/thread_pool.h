// Fork-join parallel execution for the exploration engine. Every
// (scenario, combination) simulation is independent, so the explorer fans
// them over lanes that claim indices dynamically from one shared counter
// (self-scheduling: an idle lane takes the next undone index, so uneven
// simulation costs still balance). Results are written to index-addressed
// slots by the caller, which keeps parallel output deterministically
// ordered and bit-identical to the serial path.
#pragma once

#include <cstddef>
#include <functional>

namespace ddtr::support {

// Maps the user-facing `jobs` knob to a concrete lane count: 0 means
// "one lane per hardware thread"; anything else is taken literally.
std::size_t resolve_jobs(std::size_t jobs) noexcept;

// Runs body(i) exactly once for every i in [0, n) over
// min(resolve_jobs(jobs), n) lanes: the calling thread plus helper threads
// started for this call and joined before it returns. With one lane,
// body runs inline on the caller in index order, with no thread and no
// atomics. The first exception — thrown by `body` or by starting a helper
// — skips the unclaimed indices and is rethrown on the caller once every
// lane has stopped.
void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace ddtr::support
