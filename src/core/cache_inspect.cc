#include "core/cache_inspect.h"

#include <filesystem>
#include <map>

namespace ddtr::core {

namespace {

// Cache keys are 0x1f-joined fields (see SimulationCache::key_of):
// app, app cache_version, config, trace hash, combo, model fingerprint.
constexpr char kKeySep = '\x1f';

std::vector<std::string> split_key(const std::string& key) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t sep = key.find(kKeySep, start);
    if (sep == std::string::npos) {
      fields.push_back(key.substr(start));
      return fields;
    }
    fields.push_back(key.substr(start, sep - start));
    start = sep + 1;
  }
}

std::vector<std::pair<std::string, std::size_t>> sorted_counts(
    const std::map<std::string, std::size_t>& counts) {
  return {counts.begin(), counts.end()};
}

}  // namespace

CacheStats inspect_cache(const std::string& dir) {
  PersistentSimulationCache cache(dir);
  CacheStats stats;
  std::error_code ec;
  const auto size = std::filesystem::file_size(cache.file_path(), ec);
  if (!ec) stats.bytes = size;

  stats.entries = cache.load();
  stats.duplicates = cache.load_stats().superseded;
  stats.corrupt = cache.load_stats().corrupt_entries;

  std::map<std::string, std::size_t> apps;
  std::map<std::string, std::size_t> fingerprints;
  for (const auto& [key, record] : cache.entries()) {
    const std::vector<std::string> fields = split_key(key);
    if (fields.empty()) continue;
    ++apps[fields.front()];
    ++fingerprints[fields.back()];
  }
  stats.apps = sorted_counts(apps);
  stats.model_fingerprints = sorted_counts(fingerprints);
  return stats;
}

VerifyReport verify_cache(const std::string& dir) {
  const std::string path = PersistentSimulationCache(dir).file_path();
  return {path, PersistentSimulationCache::check_file(path)};
}

std::size_t clear_cache(const std::string& dir) {
  std::error_code ec;
  const bool removed =
      std::filesystem::remove(PersistentSimulationCache(dir).file_path(), ec);
  return removed && !ec ? 1 : 0;
}

}  // namespace ddtr::core
