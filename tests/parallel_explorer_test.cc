// Parallel exploration engine: parallel_for mechanics,
// SimulationCache hit/miss accounting, and the determinism contract —
// explore() with jobs=4 must produce records, survivors and Pareto sets
// identical to jobs=1 on the URL and DRR case studies, and the simulation
// cache must make step 2 free for the representative scenario.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/ddtr.h"
#include "core/simulation_cache.h"
#include "support/thread_pool.h"

namespace ddtr::core {
namespace {

// Short traces keep each of the ~100 step-1 simulations cheap.
CaseStudyOptions tiny_options() {
  CaseStudyOptions options;
  options.route_packets = 200;
  options.url_packets = 200;
  options.ipchains_packets = 200;
  options.drr_packets = 200;
  return options;
}

void expect_reports_identical(const ExplorationReport& serial,
                              const ExplorationReport& parallel) {
  // Byte-identical logs (exact doubles included)...
  EXPECT_EQ(serial.serialized_records(), parallel.serialized_records());
  // ...identical survivor combinations, in the same order...
  EXPECT_EQ(serial.survivors, parallel.survivors);
  // ...and an identical final Pareto-optimal set.
  EXPECT_EQ(serial.pareto_optimal, parallel.pareto_optimal);
  EXPECT_EQ(serial.step1_simulations, parallel.step1_simulations);
  EXPECT_EQ(serial.step2_simulations, parallel.step2_simulations);
  ASSERT_EQ(serial.aggregated.size(), parallel.aggregated.size());
  for (std::size_t i = 0; i < serial.aggregated.size(); ++i) {
    EXPECT_EQ(serial.aggregated[i].metrics.energy_mj,
              parallel.aggregated[i].metrics.energy_mj);
    EXPECT_EQ(serial.aggregated[i].metrics.time_s,
              parallel.aggregated[i].metrics.time_s);
    EXPECT_EQ(serial.aggregated[i].metrics.accesses,
              parallel.aggregated[i].metrics.accesses);
    EXPECT_EQ(serial.aggregated[i].metrics.footprint_bytes,
              parallel.aggregated[i].metrics.footprint_bytes);
  }
}

ExplorationReport explore_with_jobs(const CaseStudy& study,
                                    std::size_t jobs) {
  ExplorationOptions options;
  options.jobs = jobs;
  const ExplorationEngine engine(make_paper_energy_model(), options);
  return engine.explore(study);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t jobs : {1, 3, 8}) {
    for (const std::size_t n : {0, 1, 2, 1000}) {
      std::vector<std::atomic<int>> counts(n);
      support::parallel_for(jobs, n, [&](std::size_t i) { ++counts[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(counts[i].load(), 1)
            << "jobs " << jobs << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(ParallelFor, SingleLaneRunsInOrderOnTheCaller) {
  // jobs = 1, and n = 1 at any jobs, take the inline path.
  for (const auto& [jobs, n] :
       {std::pair<std::size_t, std::size_t>{1, 5}, {8, 1}}) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;  // unsynchronized: only legal inline
    support::parallel_for(jobs, n, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<std::size_t> expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = i;
    EXPECT_EQ(order, expected) << "jobs " << jobs << ", n " << n;
  }
}

TEST(ParallelFor, StartsNoMoreLanesThanIndices) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  support::parallel_for(64, 3, [&](std::size_t) {
    // Hold each unit briefly so idle lanes, if any existed, would claim.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), 3u);
}

TEST(ParallelFor, RethrowsBodyExceptionAfterEveryLaneStopped) {
  std::atomic<int> running{0};
  std::atomic<bool> returned{false};
  std::atomic<int> late_calls{0};
  EXPECT_THROW(
      support::parallel_for(4, 100,
                            [&](std::size_t i) {
                              if (returned.load()) ++late_calls;
                              ++running;
                              std::this_thread::sleep_for(
                                  std::chrono::microseconds(200));
                              --running;
                              if (i == 37) {
                                throw std::runtime_error("lane failure");
                              }
                            }),
      std::runtime_error);
  returned.store(true);
  EXPECT_EQ(running.load(), 0);  // every lane was joined before the throw
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(late_calls.load(), 0);
  EXPECT_EQ(running.load(), 0);
}

TEST(ParallelFor, ResolveJobsMapsZeroToHardware) {
  EXPECT_GE(support::resolve_jobs(0), 1u);
  EXPECT_EQ(support::resolve_jobs(3), 3u);
}

TEST(SimulationCache, CountsHitsAndMisses) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const Scenario& scenario = study.scenarios.front();
  const energy::EnergyModel model = make_paper_energy_model();
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kSll});

  SimulationCache cache;
  const SimulationRecord first = cache.get_or_simulate(scenario, combo, model);
  const SimulationRecord second =
      cache.get_or_simulate(scenario, combo, model);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.entries().size(), 1u);
  EXPECT_EQ(first.metrics.energy_mj, second.metrics.energy_mj);
  EXPECT_EQ(first.metrics.accesses, second.metrics.accesses);

  // A different combination on the same scenario misses...
  const ddt::DdtCombination other({ddt::DdtKind::kDll, ddt::DdtKind::kSll});
  cache.get_or_simulate(scenario, other, model);
  EXPECT_EQ(cache.stats().misses, 2u);
  // ...and so does the same combination on a different scenario.
  cache.get_or_simulate(study.scenarios.back(), combo, model);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.entries().size(), 3u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.25);
}

TEST(SimulationCache, FindDoesNotSimulate) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  const ddt::DdtCombination combo(
      {ddt::DdtKind::kArray, ddt::DdtKind::kArray});
  const energy::EnergyModel model = make_paper_energy_model();
  const Scenario& scenario = study.scenarios.front();
  SimulationCache cache;
  EXPECT_FALSE(cache.find(scenario, combo, model).has_value());
  cache.insert(SimulationCache::key_of(scenario, combo, model),
               simulate(scenario, combo, model));
  EXPECT_TRUE(cache.find(scenario, combo, model).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ParallelExplorer, UrlParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);  // keep the single-core test budget small
  expect_reports_identical(explore_with_jobs(study, 1),
                           explore_with_jobs(study, 4));
}

TEST(ParallelExplorer, DrrParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("drr", tiny_options());
  study.scenarios.resize(2);
  expect_reports_identical(explore_with_jobs(study, 1),
                           explore_with_jobs(study, 4));
}

TEST(ParallelExplorer, GreedyPolicyParallelMatchesSerial) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);
  ExplorationOptions options;
  options.step1_policy = Step1Policy::kGreedyPerSlot;
  options.jobs = 1;
  const ExplorationEngine serial(make_paper_energy_model(), options);
  options.jobs = 4;
  const ExplorationEngine parallel(make_paper_energy_model(), options);
  expect_reports_identical(serial.explore(study), parallel.explore(study));
}

TEST(ParallelExplorer, CacheMakesRepresentativeScenarioFreeInStep2) {
  CaseStudy study = api::registry().make_study("url", tiny_options());
  study.scenarios.resize(2);
  const ExplorationReport report = explore_with_jobs(study, 2);

  // Step 1 executed everything (empty cache)...
  EXPECT_EQ(report.step1_executed_simulations, report.step1_simulations);
  // ...but every survivor on the representative scenario is a step-1
  // replay, so step 2 only executes the OTHER scenarios' simulations.
  EXPECT_EQ(report.step2_executed_simulations,
            report.step2_simulations - report.survivors.size());
  EXPECT_GE(report.cache_hits, report.survivors.size());
  EXPECT_LT(report.executed_simulations(), report.reduced_simulations());

  // The memoized records are still exactly the simulated ones: the
  // public steps, run without a cache, simulate every record directly.
  ExplorationOptions options;
  options.jobs = 2;
  const ExplorationEngine engine(make_paper_energy_model(), options);
  ExplorationReport raw;
  raw.step1_records = engine.run_step1(study);
  EXPECT_EQ(engine.select_survivors(raw.step1_records), report.survivors);
  raw.step2_records = engine.run_step2(study, report.survivors);
  EXPECT_EQ(raw.serialized_records(), report.serialized_records());
}

}  // namespace
}  // namespace ddtr::core
