#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace ddtr::support {

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t jobs, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  // No point starting more lanes than there are indices; the caller is one.
  const std::size_t lanes = std::min(resolve_jobs(jobs), n);
  if (lanes <= 1) {
    // Serial path: no shared state, no synchronization — byte-identical
    // behavior to the pre-parallel engine.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::mutex mu;
  std::exception_ptr error;  // first failure, guarded by mu
  // Records the first failure and poisons the pile (next jumps past n),
  // so every lane stops claiming.
  const auto fail = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
    next.store(n, std::memory_order_relaxed);
  };
  // Pool telemetry (see src/obs/): relaxed-atomic counters that never
  // feed scheduling or results. Indices claimed by helper lanes are the
  // "steals" that balanced uneven unit costs away from the calling lane.
  static obs::Counter& caller_claims =
      obs::registry().counter("pool.caller_claims");
  static obs::Counter& helper_claims =
      obs::registry().counter("pool.helper_claims");
  const auto drain = [&](obs::Counter& claims) {
    std::size_t claimed = 0;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      ++claimed;
      try {
        body(i);
      } catch (...) {
        fail(std::current_exception());
      }
    }
    claims.add(claimed);  // one add per drain: the claim loop stays hot
  };

  {
    // jthreads join on destruction, so the lanes already started are
    // joined even when starting a later one throws.
    std::vector<std::jthread> helpers;
    helpers.reserve(lanes - 1);
    try {
      for (std::size_t t = 1; t < lanes; ++t) {
        helpers.emplace_back([&] { drain(helper_claims); });
      }
    } catch (...) {
      fail(std::current_exception());
    }
    drain(caller_claims);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace ddtr::support
