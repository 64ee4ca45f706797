#include "core/persistent_cache.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/binary_io.h"
#include "support/fnv_hash.h"

namespace ddtr::core {

namespace {

// Cache I/O telemetry (see src/obs/). Timings are monotonic durations,
// byte counters come from the structural walk / stream offsets — nothing
// here reads the wall clock or feeds back into cache keys or contents.
struct PcacheMetrics {
  obs::Histogram& load_us = obs::registry().histogram("pcache.load_us");
  obs::Histogram& store_us = obs::registry().histogram("pcache.store_us");
  obs::Counter& bytes_read = obs::registry().counter("pcache.bytes_read");
  obs::Counter& bytes_written =
      obs::registry().counter("pcache.bytes_written");
  obs::Counter& entries_loaded =
      obs::registry().counter("pcache.entries_loaded");
  obs::Counter& entries_stored =
      obs::registry().counter("pcache.entries_stored");
  obs::Counter& entries_corrupt =
      obs::registry().counter("pcache.entries_corrupt");
};

PcacheMetrics& pcache_metrics() {
  static PcacheMetrics m;
  return m;
}

// Serializes cache-file I/O within the process: concurrent API sessions
// (api::Exploration runs on different threads with the same cache_dir)
// each load and append the same cache file. Writers in other processes
// are excluded by DirLock below.
std::mutex& io_mutex() {
  static std::mutex mu;
  return mu;
}

// Exclusive advisory lock on the cache directory, held by every writer
// for its whole append. It is taken on a descriptor of the directory, not
// of the file: a directory lock works whether or not the file exists yet,
// and `ddtr cache clear` unlinks the file, so a lock on the file's inode
// would not exclude a writer that opened the unlinked one. The kernel
// releases a flock() when its descriptor closes, including when the
// holding process dies, so a killed writer leaves no stale lock.
class DirLock {
 public:
  explicit DirLock(const std::string& dir)
      : fd_(::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)) {
    if (fd_ < 0) return;
    while (::flock(fd_, LOCK_EX) != 0) {
      if (errno == EINTR) continue;
      ::close(fd_);
      fd_ = -1;
      return;
    }
  }
  ~DirLock() {
    if (fd_ >= 0) ::close(fd_);
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

  bool held() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

constexpr char kFileMagic[8] = {'D', 'D', 'T', 'R', 'S', 'I', 'M', 'C'};
constexpr std::uint32_t kFormatVersionValue =
    PersistentSimulationCache::kFormatVersion;
constexpr std::uint32_t kEntryMagic = 0x454d4953u;  // "SIME" little-endian
// One entry is a key plus one record; far below this. A corrupt length
// prefix must not look like a multi-gigabyte entry.
constexpr std::uint64_t kMaxEntryBytes = 16ull << 20;

// Entry payload: key, then the full SimulationRecord. The combination is
// stored as its label ("AR+DLL"), which is bijective with combinations.
void write_entry_payload(std::ostream& os, const std::string& key,
                         const SimulationRecord& r) {
  support::write_string(os, key);
  support::write_string(os, r.app_name);
  support::write_string(os, r.combo.label());
  support::write_string(os, r.network);
  support::write_string(os, r.config);
  support::write_f64(os, r.metrics.energy_mj);
  support::write_f64(os, r.metrics.time_s);
  support::write_u64(os, r.metrics.accesses);
  support::write_u64(os, r.metrics.footprint_bytes);
  support::write_u64(os, r.counters.reads);
  support::write_u64(os, r.counters.writes);
  support::write_u64(os, r.counters.bytes_read);
  support::write_u64(os, r.counters.bytes_written);
  support::write_u64(os, r.counters.allocations);
  support::write_u64(os, r.counters.deallocations);
  support::write_u64(os, r.counters.live_bytes);
  support::write_u64(os, r.counters.peak_bytes);
  support::write_u64(os, r.counters.cpu_ops);
}

bool parse_combo(const std::string& label, ddt::DdtCombination& combo) {
  std::vector<ddt::DdtKind> kinds;
  std::stringstream parts(label);
  std::string part;
  while (std::getline(parts, part, '+')) {
    const auto kind = ddt::parse_ddt_kind(part);
    if (!kind) return false;
    kinds.push_back(*kind);
  }
  combo = ddt::DdtCombination(std::move(kinds));
  return true;
}

bool read_entry_payload(std::istream& is, std::string& key,
                        SimulationRecord& r) {
  std::string combo_label;
  if (!support::read_string(is, key) ||
      !support::read_string(is, r.app_name) ||
      !support::read_string(is, combo_label) ||
      !support::read_string(is, r.network) ||
      !support::read_string(is, r.config) ||
      !support::read_f64(is, r.metrics.energy_mj) ||
      !support::read_f64(is, r.metrics.time_s) ||
      !support::read_u64(is, r.metrics.accesses) ||
      !support::read_u64(is, r.metrics.footprint_bytes) ||
      !support::read_u64(is, r.counters.reads) ||
      !support::read_u64(is, r.counters.writes) ||
      !support::read_u64(is, r.counters.bytes_read) ||
      !support::read_u64(is, r.counters.bytes_written) ||
      !support::read_u64(is, r.counters.allocations) ||
      !support::read_u64(is, r.counters.deallocations) ||
      !support::read_u64(is, r.counters.live_bytes) ||
      !support::read_u64(is, r.counters.peak_bytes) ||
      !support::read_u64(is, r.counters.cpu_ops)) {
    return false;
  }
  return parse_combo(combo_label, r.combo);
}

// Reads and checks the file header (magic + format version). A file
// that fails it is not ours, corrupt, or written by another format
// version: invalid as a whole (stale-version invalidation).
bool read_file_header(std::istream& is) {
  char magic[sizeof(kFileMagic)] = {};
  std::uint32_t version = 0;
  return is.read(magic, sizeof(magic)) &&
         std::equal(std::begin(magic), std::end(magic),
                    std::begin(kFileMagic)) &&
         support::read_u32(is, version) && version == kFormatVersionValue;
}

// One full structural walk of a cache file. Shared by load() (absorbing
// entries), store_new() (finding the append offset) and check_file()
// (counting only), so they can never disagree about what "well-formed"
// means.
struct ParsedFile {
  bool header_valid = false;
  // End of the last structurally complete frame: past it, any bytes are
  // a torn tail.
  std::uint64_t valid_prefix = 0;
  std::size_t entries_ok = 0;
  std::size_t entries_corrupt = 0;
  std::uint64_t bytes = 0;
};

ParsedFile parse_cache_file(
    const std::string& path,
    const std::function<void(std::string&&, SimulationRecord&&)>& on_entry) {
  ParsedFile out;
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  out.bytes = ec ? 0 : size;
  std::ifstream is(path, std::ios::binary);
  if (!is || !read_file_header(is)) return out;
  out.header_valid = true;
  out.valid_prefix = static_cast<std::uint64_t>(is.tellg());

  // Entries until EOF. A short or unrecognizable frame ends the file (a
  // torn append loses only the tail); a frame whose checksum or payload
  // fails to parse is skipped individually (its length is known).
  while (true) {
    std::uint32_t entry_magic = 0;
    std::uint64_t payload_size = 0;
    std::uint64_t checksum = 0;
    if (!support::read_u32(is, entry_magic) || entry_magic != kEntryMagic ||
        !support::read_u64(is, payload_size) ||
        payload_size > kMaxEntryBytes || !support::read_u64(is, checksum)) {
      break;
    }
    std::string payload(payload_size, '\0');
    if (payload_size != 0 &&
        !is.read(payload.data(),
                 static_cast<std::streamsize>(payload_size))) {
      break;
    }
    // The frame is structurally complete: later appends may follow it
    // even if this entry's content is rejected below.
    out.valid_prefix = static_cast<std::uint64_t>(is.tellg());
    if (support::fnv1a64(payload.data(), payload.size()) != checksum) {
      ++out.entries_corrupt;  // bit-corrupted; the frame length let us skip
      continue;
    }
    std::istringstream payload_stream(payload);
    std::string key;
    SimulationRecord record;
    if (!read_entry_payload(payload_stream, key, record)) {
      ++out.entries_corrupt;
      continue;
    }
    ++out.entries_ok;
    if (on_entry) on_entry(std::move(key), std::move(record));
  }
  return out;
}

void write_entry(std::ostream& os, const std::string& key,
                 const SimulationRecord& r) {
  std::ostringstream payload_stream;
  write_entry_payload(payload_stream, key, r);
  const std::string payload = payload_stream.str();
  support::write_u32(os, kEntryMagic);
  support::write_u64(os, payload.size());
  support::write_u64(os, support::fnv1a64(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void write_file_header(std::ostream& os) {
  os.write(kFileMagic, sizeof(kFileMagic));
  support::write_u32(os, kFormatVersionValue);
}

}  // namespace

PersistentSimulationCache::PersistentSimulationCache(std::string dir)
    : dir_(std::move(dir)) {}

std::string PersistentSimulationCache::file_path() const {
  return (std::filesystem::path(dir_) / "sim_cache.ddtr").string();
}

std::size_t PersistentSimulationCache::load() {
  PcacheMetrics& metrics = pcache_metrics();
  const std::uint64_t t0 = obs::now_us();
  std::lock_guard<std::mutex> io_lock(io_mutex());
  loaded_.clear();
  load_stats_ = LoadStats{};
  const ParsedFile parsed = parse_cache_file(
      file_path(), [&](std::string&& key, SimulationRecord&& record) {
        if (!loaded_.insert_or_assign(std::move(key), std::move(record))
                 .second) {
          ++load_stats_.superseded;
        }
      });
  load_stats_.corrupt_entries = parsed.entries_corrupt;
  metrics.bytes_read.add(parsed.bytes);
  metrics.entries_loaded.add(parsed.entries_ok);
  metrics.entries_corrupt.add(parsed.entries_corrupt);
  metrics.load_us.observe(obs::now_us() - t0);
  return loaded_.size();
}

void PersistentSimulationCache::seed(SimulationCache& cache) const {
  for (const auto& [key, record] : loaded_) cache.insert(key, record);
}

std::vector<std::pair<std::string, SimulationRecord>>
PersistentSimulationCache::entries() const {
  std::vector<std::pair<std::string, SimulationRecord>> out;
  out.reserve(loaded_.size());
  for (const auto& [key, record] : loaded_) out.emplace_back(key, record);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::size_t PersistentSimulationCache::store_new(
    const SimulationCache& cache) {
  std::vector<std::pair<std::string, SimulationRecord>> fresh;
  for (auto& entry : cache.entries()) {
    if (!loaded_.contains(entry.first)) fresh.push_back(std::move(entry));
  }
  if (fresh.empty()) return 0;

  PcacheMetrics& metrics = pcache_metrics();
  const std::uint64_t t0 = obs::now_us();
  std::lock_guard<std::mutex> io_lock(io_mutex());
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort
  const DirLock dir_lock(dir_);
  if (!dir_lock.held()) return 0;
  const std::string path = file_path();

  // Append to a valid file after cutting its torn tail (a writer killed
  // mid-append); rewrite (header included) a missing or invalid one.
  // Walked under DirLock, so the offset reflects whatever other writers
  // appended or rewrote since this object's load(). Appending entries
  // another writer already stored is benign: load() keeps one entry per
  // key.
  const ParsedFile parsed = parse_cache_file(path, nullptr);
  const std::uint64_t append_from =
      parsed.header_valid ? parsed.valid_prefix : 0;
  if (append_from != 0 && parsed.bytes > append_from) {
    std::filesystem::resize_file(path, append_from, ec);
    if (ec) return 0;
  }
  std::ofstream os(path, std::ios::binary | (append_from != 0
                                                 ? std::ios::app
                                                 : std::ios::trunc));
  if (!os) return 0;
  if (append_from == 0) write_file_header(os);
  std::size_t written = 0;
  for (auto& [key, record] : fresh) {
    write_entry(os, key, record);
    if (!os) break;
    ++written;
    loaded_.insert_or_assign(std::move(key), std::move(record));
  }
  if (os) {
    const auto end = static_cast<std::uint64_t>(os.tellp());
    if (end > append_from) metrics.bytes_written.add(end - append_from);
  }
  os.close();
  // Flush the appended frames to stable storage before releasing the
  // lock: a crash right after a store must not lose what it reported.
  if (written != 0) support::fsync_file(path);
  metrics.entries_stored.add(written);
  metrics.store_us.observe(obs::now_us() - t0);
  return written;
}

PersistentSimulationCache::FileCheck PersistentSimulationCache::check_file(
    const std::string& path) {
  FileCheck check;
  std::error_code ec;
  check.present = std::filesystem::exists(path, ec) && !ec;
  if (!check.present) return check;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec && size == 0) {
    // Zero-length: a crash between creation and the first write. Nothing
    // to parse, nothing corrupt — the next store_new() rewrites it from
    // scratch.
    check.empty = true;
    return check;
  }
  const ParsedFile parsed = parse_cache_file(path, nullptr);
  check.header_valid = parsed.header_valid;
  check.bytes = parsed.bytes;
  check.entries_ok = parsed.entries_ok;
  check.entries_corrupt = parsed.entries_corrupt;
  check.trailing_bytes =
      parsed.bytes > parsed.valid_prefix ? parsed.bytes - parsed.valid_prefix
                                         : 0;
  return check;
}

}  // namespace ddtr::core
