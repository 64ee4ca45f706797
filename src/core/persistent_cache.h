// Cross-run persistence for the simulation cache. The paper's flow
// re-runs the same (trace, configuration, combination) simulations across
// studies, ablations and repeated `ddtr` invocations; this class makes
// those replays survive the process: a versioned binary file per cache
// directory, loaded at session start to seed the in-memory
// SimulationCache, appended after the run with whatever that run had to
// simulate. Soundness comes from the cache keys (content hashes +
// energy-model fingerprint, see SimulationCache::key_of), so a warm cache
// yields byte-identical reports with zero executed simulations.
//
// Multi-writer model: a cache directory holds ONE append-only file
// (sim_cache.ddtr) with one write operation, store_new(). Writers, in any
// number of processes, hold an exclusive flock() on the cache directory
// for the whole append and re-read the file's extent under it, so they
// never act on stale offsets; the kernel drops the lock when its holder
// dies, so a killed writer leaves no stale lock. Readers take no lock: a
// torn in-flight append is a tail the loader already ignores.
//
// Robustness contract: cache files are disposable acceleration state,
// never a source of truth. A missing, truncated, corrupt or
// version-mismatched file is ignored (the run just starts cold and
// rewrites it); per-entry checksums drop damaged entries individually, so
// a torn append — e.g. a run killed mid-store — only costs the tail.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"

namespace ddtr::core {

class PersistentSimulationCache {
 public:
  // On-disk format version; bump on any layout change. A file with a
  // different version is invalid as a whole (stale-version invalidation)
  // and gets rewritten by the next store_new().
  static constexpr std::uint32_t kFormatVersion = 1;

  // What the last load() consumed.
  struct LoadStats {
    std::size_t superseded = 0;       // duplicate keys overwritten loading
    std::size_t corrupt_entries = 0;  // frames dropped (checksum/payload)
  };

  // Structural health of the cache file — the substrate of
  // `ddtr cache verify`.
  struct FileCheck {
    bool present = false;
    // A zero-length file: the recognizable scar of a crash between file
    // creation and the first durable write. Tolerated (the next run
    // rewrites it), reported distinctly so verify does not flag it as
    // corruption.
    bool empty = false;
    bool header_valid = false;         // magic + current format version
    std::uint64_t bytes = 0;           // file size
    std::size_t entries_ok = 0;        // frames with valid checksum+payload
    std::size_t entries_corrupt = 0;   // frames dropped
    std::uint64_t trailing_bytes = 0;  // torn tail past the last frame
  };

  explicit PersistentSimulationCache(std::string dir);

  const std::string& dir() const noexcept { return dir_; }
  // The cache file inside dir().
  std::string file_path() const;

  // Reads the cache file into memory, deduplicating by key (the last
  // occurrence of a key wins; keys are content hashes of deterministic
  // simulations, so colliding entries agree and the order is a
  // tie-break, not a correctness concern). Returns the number of
  // distinct entries loaded; 0 (never a throw) when nothing readable.
  std::size_t load();

  const LoadStats& load_stats() const noexcept { return load_stats_; }

  // Seeds `cache` with every loaded entry (existing entries win, stats
  // untouched — seeded records count as hits only when a lookup replays
  // them).
  void seed(SimulationCache& cache) const;

  // Snapshot of the loaded entries, sorted by key (deterministic order
  // for inspection tools).
  std::vector<std::pair<std::string, SimulationRecord>> entries() const;

  // Appends every entry of `cache` that was not loaded from disk to the
  // cache file, under the directory lock: creates directory and file,
  // rewrites a missing or invalid file, and cuts a torn tail before
  // appending (frames written after a torn frame would be unreachable to
  // the loader). Frames other writers appended since load() are kept.
  // Returns the number of entries written; 0 on I/O failure (persistence
  // is best-effort by design). Written entries join the loaded set, so
  // calling store_new() again does not duplicate them.
  std::size_t store_new(const SimulationCache& cache);

  // Structural walk of one cache file: header, per-frame checksums,
  // payload parses, torn tail. Never throws; never modifies the file.
  static FileCheck check_file(const std::string& path);

 private:
  std::string dir_;
  LoadStats load_stats_;
  std::unordered_map<std::string, SimulationRecord> loaded_;
};

}  // namespace ddtr::core
