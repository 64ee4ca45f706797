// Content-identity cache keys and the persistent cross-run simulation
// cache: key soundness (same labels + different trace content must NOT
// hit; different cost models must not hit), the warm-rerun contract
// (zero executed simulations, byte-identical report), round-trips through
// the cache file, tolerance of corrupt / truncated / stale-version
// files (including a seeded byte-flip and truncation sweep), several
// writers (objects, threads and processes) sharing one directory, and the
// `ddtr cache` inspection tools.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "api/ddtr.h"
#include "core/cache_inspect.h"
#include "core/persistent_cache.h"
#include "core/simulation_cache.h"
#include "support/rng.h"

namespace ddtr::core {
namespace {

CaseStudyOptions tiny_options() {
  CaseStudyOptions options;
  options.route_packets = 200;
  options.url_packets = 200;
  options.ipchains_packets = 200;
  options.drr_packets = 200;
  return options;
}

CaseStudy tiny_url_study() {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);  // keep the single-core test budget small
  return study;
}

// A unique empty scratch directory per test.
class PersistentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            (std::string("ddtr_cache_") + info->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

// Adds `count` distinct records keyed "k<first>".."k<first+count-1>".
// They are fabricated, not simulated: the file format stores whatever it
// is given and treats keys as opaque. The network label's length varies
// with the index, so frames differ in size and a stale append offset
// lands mid-frame instead of on a frame boundary by accident.
void add_records(SimulationCache& cache, std::size_t first,
                 std::size_t count) {
  for (std::size_t i = first; i < first + count; ++i) {
    SimulationRecord record;
    record.app_name = "fabricated";
    record.combo = ddt::DdtCombination({ddt::DdtKind::kArray});
    record.network = std::string(1 + 7 * i, 'n');
    record.metrics.accesses = i;
    std::string key = "k";
    key += std::to_string(i);
    cache.insert(key, record);
  }
}

ExplorationReport explore_cached(const CaseStudy& study,
                                 const std::string& cache_dir) {
  ExplorationOptions options;
  options.cache_dir = cache_dir;
  const ExplorationEngine engine(make_paper_energy_model(), options);
  return engine.explore(study);
}

TEST(SimulationCacheKeys, SameLabelsDifferentTraceContentDoNotCollide) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Same network label, same config, same app — but one extra packet.
  const Scenario& original = study.scenarios.front();
  net::Trace tweaked = *original.trace;
  tweaked.add_packet(net::PacketRecord{});
  Scenario relabeled = original;
  relabeled.trace = std::make_shared<const net::Trace>(std::move(tweaked));
  ASSERT_EQ(original.label(), relabeled.label());

  // The label-based key scheme collided here; content keys must not.
  EXPECT_NE(SimulationCache::key_of(original, combo, model),
            SimulationCache::key_of(relabeled, combo, model));

  SimulationCache cache;
  cache.get_or_simulate(original, combo, model);
  EXPECT_FALSE(cache.find(relabeled, combo, model).has_value());
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SimulationCacheKeys, DifferentEnergyModelsDoNotCollide) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const Scenario& scenario = study.scenarios.front();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  const energy::EnergyModel paper = make_paper_energy_model();
  energy::EnergyModel::Config config;
  config.clock_ghz = 2.4;
  const energy::EnergyModel faster(energy::MemoryHierarchy::cached(), config);

  EXPECT_NE(paper.fingerprint(), faster.fingerprint());
  EXPECT_NE(SimulationCache::key_of(scenario, combo, paper),
            SimulationCache::key_of(scenario, combo, faster));

  SimulationCache cache;
  cache.get_or_simulate(scenario, combo, paper);
  EXPECT_FALSE(cache.find(scenario, combo, faster).has_value());
}

// Forwards to a real app but reports different simulation semantics.
class BumpedVersionApp : public apps::NetworkApplication {
 public:
  explicit BumpedVersionApp(std::shared_ptr<apps::NetworkApplication> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<std::string> dominant_structures() const override {
    return inner_->dominant_structures();
  }
  apps::RunResult run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) override {
    return inner_->run(trace, combo);
  }
  std::string config_label() const override {
    return inner_->config_label();
  }
  std::uint32_t cache_version() const override {
    return inner_->cache_version() + 1;
  }

 private:
  std::shared_ptr<apps::NetworkApplication> inner_;
};

TEST(SimulationCacheKeys, AppCacheVersionInvalidatesOldRecords) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Same app name/config/trace — but run() semantics declared changed.
  Scenario evolved = study.scenarios.front();
  evolved.app = std::make_shared<BumpedVersionApp>(evolved.app);

  EXPECT_NE(
      SimulationCache::key_of(study.scenarios.front(), combo, model),
      SimulationCache::key_of(evolved, combo, model));

  SimulationCache cache;
  cache.get_or_simulate(study.scenarios.front(), combo, model);
  EXPECT_FALSE(cache.find(evolved, combo, model).has_value());
}

TEST(SimulationCacheKeys, HitRelabelsToRequestingScenario) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  // Identical trace content published under a different network label
  // (e.g. a record cached by a previous run of another study).
  Scenario renamed = study.scenarios.front();
  renamed.network = "some-other-name";

  SimulationCache cache;
  cache.get_or_simulate(renamed, combo, model);
  const auto hit = cache.find(study.scenarios.front(), combo, model);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->network, study.scenarios.front().network);
}

TEST_F(PersistentCacheTest, WarmRerunExecutesNothingAndIsByteIdentical) {
  const CaseStudy study = tiny_url_study();

  const ExplorationReport cold = explore_cached(study, dir_);
  EXPECT_EQ(cold.persistent_loaded, 0u);
  EXPECT_GT(cold.persistent_stored, 0u);
  EXPECT_GT(cold.executed_simulations(), 0u);

  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.persistent_loaded, cold.persistent_stored);
  EXPECT_EQ(warm.persistent_stored, 0u);
  // The acceptance contract: a warm rerun executes ZERO simulations...
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.cache_misses, 0u);
  // ...yet the report is byte-identical to the cold run's.
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
  EXPECT_EQ(warm.survivors, cold.survivors);
  EXPECT_EQ(warm.pareto_optimal, cold.pareto_optimal);

  // And identical to a run with persistence disabled entirely.
  const ExplorationReport plain = explore_cached(study, "");
  EXPECT_EQ(plain.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, WarmRerunThroughPublicApi) {
  // The api::Exploration surface of the same contract.
  api::Exploration first(tiny_url_study());
  const std::string cold_bytes =
      first.cache_dir(dir_).run().serialized_records();

  api::Exploration second(tiny_url_study());
  const ExplorationReport& warm = second.cache_dir(dir_).run();
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold_bytes);
}

TEST_F(PersistentCacheTest, RoundTripPreservesRecordsExactly) {
  const CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kDllOfArraysRoving, ddt::DdtKind::kSllRoving});
  const Scenario& scenario = study.scenarios.front();

  SimulationCache cache;
  const SimulationRecord original =
      cache.get_or_simulate(scenario, combo, model);
  PersistentSimulationCache writer(dir_);
  EXPECT_EQ(writer.load(), 0u);
  EXPECT_EQ(writer.store_new(cache), 1u);
  // A second store with no new entries appends nothing.
  EXPECT_EQ(writer.store_new(cache), 0u);

  PersistentSimulationCache reader(dir_);
  ASSERT_EQ(reader.load(), 1u);
  SimulationCache seeded;
  reader.seed(seeded);
  const auto replayed = seeded.find(scenario, combo, model);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->app_name, original.app_name);
  EXPECT_EQ(replayed->combo, original.combo);
  EXPECT_EQ(replayed->network, original.network);
  EXPECT_EQ(replayed->config, original.config);
  // Bit-exact doubles: the binary format stores IEEE-754 patterns.
  EXPECT_EQ(replayed->metrics.energy_mj, original.metrics.energy_mj);
  EXPECT_EQ(replayed->metrics.time_s, original.metrics.time_s);
  EXPECT_EQ(replayed->metrics.accesses, original.metrics.accesses);
  EXPECT_EQ(replayed->metrics.footprint_bytes,
            original.metrics.footprint_bytes);
  EXPECT_EQ(replayed->counters.cpu_ops, original.counters.cpu_ops);
  EXPECT_EQ(replayed->counters.peak_bytes, original.counters.peak_bytes);
}

TEST_F(PersistentCacheTest, CorruptFileIsIgnoredAndRewritten) {
  std::filesystem::create_directories(dir_);
  PersistentSimulationCache cache(dir_);
  {
    std::ofstream os(cache.file_path(), std::ios::binary);
    os << "this is not a ddtr cache file at all, just garbage bytes";
  }
  EXPECT_EQ(cache.load(), 0u);  // ignored, not a crash

  // A run over the corrupt directory still works and replaces the file.
  const CaseStudy study = tiny_url_study();
  const ExplorationReport cold = explore_cached(study, dir_);
  EXPECT_EQ(cold.persistent_loaded, 0u);
  EXPECT_GT(cold.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, TruncatedTailLosesOnlyTheTail) {
  const CaseStudy study = tiny_url_study();
  explore_cached(study, dir_);

  PersistentSimulationCache probe(dir_);
  const std::size_t full = probe.load();
  ASSERT_GT(full, 1u);

  // Chop the file mid-entry: the intact prefix must still load.
  const auto path = probe.file_path();
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 37);
  PersistentSimulationCache truncated(dir_);
  const std::size_t partial = truncated.load();
  EXPECT_LT(partial, full);
  EXPECT_GT(partial, 0u);

  // The next run re-executes only what the tail lost, then heals the file.
  const ExplorationReport heal = explore_cached(study, dir_);
  EXPECT_EQ(heal.persistent_loaded, partial);
  EXPECT_GT(heal.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
}

TEST_F(PersistentCacheTest, StaleFormatVersionInvalidatesWholeFile) {
  const CaseStudy study = tiny_url_study();
  const ExplorationReport cold = explore_cached(study, dir_);
  ASSERT_GT(cold.persistent_stored, 0u);

  // Flip the format-version field (bytes 8..11, after the 8-byte magic).
  PersistentSimulationCache probe(dir_);
  {
    std::fstream os(probe.file_path(),
                    std::ios::binary | std::ios::in | std::ios::out);
    os.seekp(8);
    const char stale[4] = {'\xff', '\xff', '\xff', '\xff'};
    os.write(stale, sizeof(stale));
  }
  EXPECT_EQ(probe.load(), 0u);

  // The stale file is rewritten, after which reruns are warm again.
  const ExplorationReport rewrite = explore_cached(study, dir_);
  EXPECT_EQ(rewrite.persistent_loaded, 0u);
  EXPECT_GT(rewrite.persistent_stored, 0u);
  const ExplorationReport warm = explore_cached(study, dir_);
  EXPECT_EQ(warm.executed_simulations(), 0u);
  EXPECT_EQ(warm.serialized_records(), cold.serialized_records());
}

TEST_F(PersistentCacheTest, ZeroLengthFileIsToleratedAndReported) {
  // The scar of a crash between creating the file and the first durable
  // write: tolerated on load, reported distinctly, healed by a store.
  std::filesystem::create_directories(dir_);
  PersistentSimulationCache cache(dir_);
  { std::ofstream os(cache.file_path(), std::ios::binary); }

  const auto check = PersistentSimulationCache::check_file(cache.file_path());
  EXPECT_TRUE(check.present);
  EXPECT_TRUE(check.empty);
  EXPECT_FALSE(check.header_valid);
  EXPECT_EQ(check.entries_corrupt, 0u);
  EXPECT_TRUE(verify_cache(dir_).ok());  // empty != corrupt
  EXPECT_EQ(cache.load(), 0u);

  // A store rewrites it with a valid header.
  const energy::EnergyModel model = make_paper_energy_model();
  const CaseStudy study = tiny_url_study();
  SimulationCache sim;
  sim.get_or_simulate(study.scenarios.front(),
                      ddt::DdtCombination(
                          {ddt::DdtKind::kArray, ddt::DdtKind::kSll}),
                      model);
  EXPECT_EQ(cache.store_new(sim), 1u);
  const auto healed = PersistentSimulationCache::check_file(cache.file_path());
  EXPECT_FALSE(healed.empty);
  EXPECT_TRUE(healed.header_valid);
  EXPECT_EQ(healed.entries_ok, 1u);
}

TEST_F(PersistentCacheTest, ColdStartSessionsDoNotWipeEachOthersStores) {
  // Two sessions share one cache dir and both load() before the file
  // exists; the second store_new() must append to the first's file, not
  // rewrite it from scratch.
  const CaseStudy study = tiny_url_study();
  const energy::EnergyModel model = make_paper_energy_model();
  PersistentSimulationCache first(dir_);
  PersistentSimulationCache second(dir_);
  EXPECT_EQ(first.load(), 0u);
  EXPECT_EQ(second.load(), 0u);

  SimulationCache cache_a;
  cache_a.get_or_simulate(study.scenarios.front(),
                          ddt::DdtCombination(
                              {ddt::DdtKind::kArray, ddt::DdtKind::kSll}),
                          model);
  SimulationCache cache_b;
  cache_b.get_or_simulate(study.scenarios.front(),
                          ddt::DdtCombination(
                              {ddt::DdtKind::kDll, ddt::DdtKind::kSll}),
                          model);
  EXPECT_EQ(first.store_new(cache_a), 1u);
  EXPECT_EQ(second.store_new(cache_b), 1u);

  PersistentSimulationCache reader(dir_);
  EXPECT_EQ(reader.load(), 2u);  // both sessions' records survived
}

TEST_F(PersistentCacheTest, AppendAfterForeignClearKeepsEveryEntry) {
  // Writer A appends, writer B appends after it, `ddtr cache clear`
  // unlinks the file and a fresh writer C starts a new, longer one; then
  // A appends again. A must append to the file as it is now: the offset
  // where its own last store ended lies inside C's file, and cutting the
  // file there loses records.
  PersistentSimulationCache a(dir_);
  PersistentSimulationCache b(dir_);
  EXPECT_EQ(a.load(), 0u);
  EXPECT_EQ(b.load(), 0u);
  SimulationCache records_a;
  add_records(records_a, 4, 2);
  EXPECT_EQ(a.store_new(records_a), 2u);
  SimulationCache records_b;
  add_records(records_b, 0, 4);
  EXPECT_EQ(b.store_new(records_b), 4u);

  EXPECT_EQ(clear_cache(dir_), 1u);
  PersistentSimulationCache c(dir_);
  EXPECT_EQ(c.load(), 0u);
  SimulationCache records_c;
  add_records(records_c, 7, 3);
  EXPECT_EQ(c.store_new(records_c), 3u);

  add_records(records_a, 6, 1);
  EXPECT_EQ(a.store_new(records_a), 1u);

  PersistentSimulationCache reader(dir_);
  EXPECT_EQ(reader.load(), 4u);  // C's three and A's newest
  EXPECT_EQ(reader.load_stats().corrupt_entries, 0u);
  EXPECT_TRUE(verify_cache(dir_).ok());
}

TEST_F(PersistentCacheTest, ConcurrentWriterProcessesKeepEveryEntry) {
  // Two writer processes and this one store disjoint records over many
  // store_new() calls into the same directory at the same time. A reader
  // must then see every record, none corrupt.
  constexpr std::size_t kCalls = 25;
  constexpr std::size_t kPerCall = 3;
  constexpr std::size_t kWriters = 3;  // two children, then this process
  std::vector<pid_t> writers;
  for (std::size_t w = 0; w + 1 < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      PersistentSimulationCache writer(dir_);
      writer.load();
      SimulationCache records;
      bool ok = true;
      for (std::size_t call = 0; call < kCalls; ++call) {
        add_records(records, (w * kCalls + call) * kPerCall, kPerCall);
        ok = writer.store_new(records) == kPerCall && ok;
      }
      ::_exit(ok ? 0 : 1);
    }
    writers.push_back(pid);
  }

  PersistentSimulationCache writer(dir_);
  writer.load();
  SimulationCache records;
  for (std::size_t call = 0; call < kCalls; ++call) {
    add_records(records, ((kWriters - 1) * kCalls + call) * kPerCall,
                kPerCall);
    EXPECT_EQ(writer.store_new(records), kPerCall);
  }
  for (const pid_t pid : writers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  PersistentSimulationCache reader(dir_);
  EXPECT_EQ(reader.load(), kWriters * kCalls * kPerCall);
  EXPECT_EQ(reader.load_stats().corrupt_entries, 0u);
  EXPECT_TRUE(verify_cache(dir_).ok());
}

TEST_F(PersistentCacheTest, ConcurrentSessionsInOneProcessShareTheDir) {
  // Two API sessions on two threads explore different apps into one cache
  // directory at the same time; their loads and appends meet on the same
  // file inside one process. Afterwards each app replays warm: zero
  // executed simulations and the cold run's exact records.
  const std::vector<std::string> apps = {"url", "drr"};
  const auto study_of = [](const std::string& app) {
    CaseStudy study = api::registry().make_study(app, tiny_options());
    study.scenarios.resize(2);  // keep the single-core test budget small
    return study;
  };
  std::vector<std::string> cold(apps.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    threads.emplace_back([&, i] {
      api::Exploration session(study_of(apps[i]));
      cold[i] = session.cache_dir(dir_).run().serialized_records();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_TRUE(verify_cache(dir_).ok());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    SCOPED_TRACE(apps[i]);
    api::Exploration warm(study_of(apps[i]));
    const ExplorationReport& report = warm.cache_dir(dir_).run();
    EXPECT_EQ(report.executed_simulations(), 0u);
    EXPECT_EQ(report.serialized_records(), cold[i]);
  }
}

bool same_record(const SimulationRecord& a, const SimulationRecord& b) {
  const prof::ProfileCounters& x = a.counters;
  const prof::ProfileCounters& y = b.counters;
  return a.app_name == b.app_name && a.combo == b.combo &&
         a.network == b.network && a.config == b.config &&
         a.metrics.energy_mj == b.metrics.energy_mj &&
         a.metrics.time_s == b.metrics.time_s &&
         a.metrics.accesses == b.metrics.accesses &&
         a.metrics.footprint_bytes == b.metrics.footprint_bytes &&
         x.reads == y.reads && x.writes == y.writes &&
         x.bytes_read == y.bytes_read && x.bytes_written == y.bytes_written &&
         x.allocations == y.allocations &&
         x.deallocations == y.deallocations &&
         x.live_bytes == y.live_bytes && x.peak_bytes == y.peak_bytes &&
         x.cpu_ops == y.cpu_ops;
}

TEST_F(PersistentCacheTest, CorruptionSweepNeverCrashesOrMisloads) {
  // A seeded sweep of byte flips and of truncations at every cut point
  // over a valid cache file. For each mutated file, load() must not
  // throw, every record it returns must equal the original record for
  // its key, check_file() must count the same good and corrupt entries
  // as load() (a duplicate key is one good frame, one entry), and a
  // store_new() into the mutant must keep every record load() saw.
  SimulationCache cache;
  add_records(cache, 0, 6);
  {
    PersistentSimulationCache writer(dir_);
    writer.load();
    ASSERT_EQ(writer.store_new(cache), 6u);
  }
  PersistentSimulationCache original(dir_);
  ASSERT_EQ(original.load(), 6u);
  const auto entries = original.entries();
  const std::string path = original.file_path();
  std::string valid;
  {
    std::ifstream is(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(valid.empty());
  SimulationCache extra;
  add_records(extra, 6, 1);  // "k6" sorts after every original key
  const auto extra_entry = extra.entries().front();

  auto check_mutant = [&](const std::string& bytes, const std::string& what) {
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    PersistentSimulationCache probe(dir_);
    std::size_t loaded = 0;
    ASSERT_NO_THROW(loaded = probe.load()) << what;
    for (const auto& [key, record] : probe.entries()) {
      const auto it = std::find_if(
          entries.begin(), entries.end(),
          [&](const auto& entry) { return entry.first == key; });
      ASSERT_NE(it, entries.end()) << what << ": unknown key " << key;
      EXPECT_TRUE(same_record(record, it->second))
          << what << ": record for " << key << " differs";
    }
    const auto check = PersistentSimulationCache::check_file(path);
    EXPECT_EQ(check.entries_ok, loaded + probe.load_stats().superseded)
        << what;
    EXPECT_EQ(check.entries_corrupt, probe.load_stats().corrupt_entries)
        << what;

    // A fresh writer appends one new record after whatever the mutant
    // kept (or rewrites an invalid file); a reload returns exactly the
    // records the mutant loaded plus the new one.
    PersistentSimulationCache writer(dir_);
    ASSERT_EQ(writer.store_new(extra), 1u) << what;
    PersistentSimulationCache reload(dir_);
    ASSERT_NO_THROW(reload.load()) << what;
    auto expected = probe.entries();
    expected.push_back(extra_entry);
    const auto reloaded = reload.entries();
    ASSERT_EQ(reloaded.size(), expected.size()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(reloaded[i].first, expected[i].first) << what;
      EXPECT_TRUE(same_record(reloaded[i].second, expected[i].second))
          << what << ": record for " << expected[i].first << " differs";
    }
  };

  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    check_mutant(valid.substr(0, cut), "truncated at " + std::to_string(cut));
  }
  support::Rng rng(0xdd7cac4e5eedULL);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutant = valid;
    const std::uint64_t flips = rng.uniform(1, 4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const auto pos =
          static_cast<std::size_t>(rng.uniform(0, mutant.size() - 1));
      const auto mask = static_cast<char>(rng.uniform(1, 255));
      mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
    }
    check_mutant(mutant, "flip iteration " + std::to_string(iter));
  }
}

TEST_F(PersistentCacheTest, InspectAndClearCoverTheCacheFile) {
  const CaseStudy study = tiny_url_study();
  explore_cached(study, dir_);
  const CacheStats stats = inspect_cache(dir_);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
  ASSERT_EQ(stats.apps.size(), 1u);
  EXPECT_EQ(stats.apps.front().first, study.scenarios.front().app->name());
  ASSERT_EQ(stats.model_fingerprints.size(), 1u);

  EXPECT_EQ(clear_cache(dir_), 1u);
  EXPECT_EQ(inspect_cache(dir_).entries, 0u);
}

TEST_F(PersistentCacheTest, MissingDirectoryIsCreatedOnStore) {
  const std::string nested = dir_ + "/deeper/nested";
  const ExplorationReport cold = explore_cached(tiny_url_study(), nested);
  EXPECT_GT(cold.persistent_stored, 0u);
  EXPECT_TRUE(
      std::filesystem::exists(PersistentSimulationCache(nested).file_path()));
}

}  // namespace
}  // namespace ddtr::core
