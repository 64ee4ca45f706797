// Inspection and maintenance of a persistent-cache directory — the
// engine room of the `ddtr cache` subcommand: stats (what is cached, for
// which workloads and cost models), verify (structural frame/checksum
// health of the cache file), and clear.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/persistent_cache.h"

namespace ddtr::core {

struct CacheStats {
  std::uint64_t bytes = 0;     // cache file size (0 when absent)
  std::size_t entries = 0;     // distinct entries
  std::size_t duplicates = 0;  // superseded keys within the file
  std::size_t corrupt = 0;     // frames dropped while loading
  // Distinct workloads and energy-model fingerprints present, with entry
  // counts (sorted by name/fingerprint — cache keys are structured, see
  // SimulationCache::key_of, so both are recoverable from the keys).
  std::vector<std::pair<std::string, std::size_t>> apps;
  std::vector<std::pair<std::string, std::size_t>> model_fingerprints;
};

CacheStats inspect_cache(const std::string& dir);

struct VerifyReport {
  std::string path;
  PersistentSimulationCache::FileCheck check;

  // True when the file is absent, empty, or has a valid header and zero
  // corrupt entries. A torn tail (trailing_bytes > 0) alone does not fail
  // verification: it is the expected scar of a killed run and heals on
  // the next append. A zero-length file is likewise tolerated (a crash
  // between creation and the first write; the next store rewrites it).
  bool ok() const {
    if (!check.present || check.empty) return true;
    return check.header_valid && check.entries_corrupt == 0;
  }
};

VerifyReport verify_cache(const std::string& dir);

// Deletes the cache file in `dir` (the directory itself stays). Returns
// the number of files removed.
std::size_t clear_cache(const std::string& dir);

}  // namespace ddtr::core
