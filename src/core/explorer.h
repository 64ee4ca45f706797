// The three-step DDT refinement methodology (paper §3, Figure 1):
//
//  Step 1 (application level)  — simulate every DDT combination on a
//      representative trace; keep the multi-metric non-dominated ~20%.
//  Step 2 (network level)      — simulate the survivors on every network
//      configuration (trace x application parameter).
//  Step 3 (Pareto level)       — aggregate the step-2 logs and prune to
//      the Pareto-optimal combination set handed to the designer.
//
// The engine also does the simulation-count bookkeeping reported in the
// paper's Table 1 (exhaustive vs reduced vs Pareto-optimal).
//
// Execution model: every (scenario, combination) simulation is
// independent, so steps 1 and 2 each fan their simulations over
// ExplorationOptions::jobs lanes (one support::parallel_for per step,
// lanes claiming indices from a shared counter) with index-addressed
// result slots — reports are bit-identical at every lane count. A
// per-explore() SimulationCache memoizes records so step 2 replays the
// representative scenario's survivors from step 1 instead of
// re-simulating them; with ExplorationOptions::cache_dir set, that cache
// is seeded from — and appended to — a persistent cross-run cache file
// (core::PersistentSimulationCache), so repeated invocations replay
// previous runs' simulations too.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "core/simulation_cache.h"

namespace ddtr::obs {
class TraceWriter;
}

namespace ddtr::core {

// How step 1 covers the combination space.
enum class Step1Policy {
  // Simulate every combination: the product of |K_s| over the slots'
  // legal kind sets K_s (121 or 132 simulations for two dominant
  // structures) — the paper's default flow.
  kExhaustive,
  // Explore each dominant structure independently, holding the others at
  // the SLL baseline (1 + sum of (|K_s| - 1) simulations: 21 or 22 for
  // two slots), then cross the per-slot non-dominated kinds. Explains
  // "reduced" counts such as the paper's DRR row (60 total simulations);
  // exact when the slots' costs are close to separable, which
  // trace-driven kernels usually are.
  kGreedyPerSlot,
};

// One progress notification from a simulation step. `done` counts logical
// simulations completed (executed or replayed) so far within the step;
// each step emits an initial {step, 0, total} event, then one event per
// completed simulation, ending exactly once at done == total.
struct StepProgress {
  int step = 0;            // 1 (application level) or 2 (network level)
  std::size_t done = 0;    // simulations completed so far in this step
  std::size_t total = 0;   // simulations this step covers
};

// Observer invoked as a step advances. The engine serializes invocations
// (worker lanes hand completions through one lock), so the callback itself
// need not be thread-safe — but it runs on whichever lane finished the
// simulation, and it should be cheap: it sits on the fan-out hot path.
using ProgressObserver = std::function<void(const StepProgress&)>;

struct ExplorationOptions {
  // Fraction of the combination space step 1 lets through (the paper
  // observes ~20% of combinations are worth keeping).
  double survivor_cap_fraction = 0.20;
  // Per-metric champions kept unconditionally — the paper's "keep the
  // combinations which have the lowest energy consumption, shortest
  // execution time, lowest memory footprint and lower memory accesses"
  // (§3.1). The remaining cap budget is filled with the best-ranked 4-D
  // non-dominated combinations.
  std::size_t champions_per_metric = 3;
  Step1Policy step1_policy = Step1Policy::kExhaustive;
  // Concurrent simulation lanes. Every (scenario, combination) simulation
  // is independent, so each step fans them over min(jobs, simulations)
  // lanes, started for the step and joined when it ends, with
  // index-addressed result slots — output is bit-identical to jobs = 1 at
  // any lane count. 1 = serial (no threads); 0 = one lane per hardware
  // thread.
  std::size_t jobs = 1;
  // When non-empty, explore()'s simulation cache persists across runs in
  // this directory: loaded before step 1, appended after step 3 with
  // whatever this run had to execute. Keys are content
  // hashes (trace content + energy-model fingerprint, see
  // SimulationCache::key_of), so reports stay byte-identical whether the
  // cache is warm, cold or disabled — a fully warm rerun executes zero
  // simulations. Corrupt or stale cache files are ignored, not fatal.
  std::string cache_dir;
  // Optional per-simulation progress notifications (see StepProgress).
  // Does not affect the produced records: reports stay bit-identical with
  // or without an observer, at any lane count.
  ProgressObserver progress;
  // --- Observability (see src/obs/) -------------------------------------
  // Optional span tracer: when set, explore() emits Chrome trace_event
  // spans (step1/select/step2/aggregate, every simulation fan unit, cache
  // I/O) into this writer. Borrowed, never
  // owned; null disables tracing. Observation-only by contract: the
  // produced records stay byte-identical with or without a sink, and the
  // sink must never feed cache keys (see the determinism lint rule).
  obs::TraceWriter* trace_sink = nullptr;
};

struct ExplorationReport {
  std::string app_name;
  std::size_t combination_count = 0;
  std::size_t scenario_count = 0;
  std::size_t exhaustive_simulations = 0;
  // Logical simulation counts (the paper's Table 1 bookkeeping: one per
  // record, whether it was executed or replayed from the cache).
  std::size_t step1_simulations = 0;
  std::size_t step2_simulations = 0;
  // Simulations actually executed per step (cache hits excluded).
  // step2_executed_simulations is one per survivor lower than
  // step2_simulations: the whole representative scenario is replayed from
  // step 1's records.
  std::size_t step1_executed_simulations = 0;
  std::size_t step2_executed_simulations = 0;
  // Simulation-cache accounting across the whole explore() call.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  // Persistent-cache accounting (0 unless options.cache_dir was set):
  // records loaded from the cache file before the run, and new records
  // appended to it afterwards.
  std::uint64_t persistent_loaded = 0;
  std::uint64_t persistent_stored = 0;

  // Step-1 design space on the representative scenario (one record per
  // combination — Figure 3a's scatter).
  std::vector<SimulationRecord> step1_records;
  // Combinations surviving the application-level filter.
  std::vector<ddt::DdtCombination> survivors;
  // Step-2 logs: survivors x scenarios.
  std::vector<SimulationRecord> step2_records;
  // Step-3 aggregation: per-survivor metrics averaged over all scenarios
  // (network field set to "<all>").
  std::vector<SimulationRecord> aggregated;
  // Indices into `aggregated` forming the final Pareto-optimal set (the
  // paper's Table 1 last column).
  std::vector<std::size_t> pareto_optimal;

  std::size_t reduced_simulations() const {
    return step1_simulations + step2_simulations;
  }
  std::size_t executed_simulations() const {
    return step1_executed_simulations + step2_executed_simulations;
  }
  double cache_hit_rate() const {
    return SimulationCache::Stats{cache_hits, cache_misses}.hit_rate();
  }
  std::vector<SimulationRecord> pareto_records() const;
  // Step-2 records belonging to one scenario label (for per-network
  // Pareto curves, Figure 4).
  std::vector<SimulationRecord> scenario_records(
      const std::string& label) const;
  // The step-1 + step-2 records as one serialized ResultLog text — the
  // single definition of "byte-identical reports" used by the
  // determinism tests, the benchmark oracle and the API equivalence tests.
  std::string serialized_records() const;
};

class ExplorationEngine {
 public:
  explicit ExplorationEngine(energy::EnergyModel model);
  ExplorationEngine(energy::EnergyModel model, ExplorationOptions options);

  // Runs all three steps.
  ExplorationReport explore(const CaseStudy& study) const;

  // Individual steps, exposed for tests, benches and partial reuse. Each
  // step fans its simulations over options().jobs lanes with
  // index-addressed result slots, so record order (and content) is
  // identical at every lane count. When `cache` is non-null, simulations
  // are replayed from / recorded into it.
  std::vector<SimulationRecord> run_step1(const CaseStudy& study,
                                          SimulationCache* cache = nullptr)
      const;
  // Greedy per-slot variant of step 1 (see Step1Policy::kGreedyPerSlot).
  std::vector<SimulationRecord> run_step1_greedy(
      const CaseStudy& study, SimulationCache* cache = nullptr) const;
  std::vector<ddt::DdtCombination> select_survivors(
      const std::vector<SimulationRecord>& step1_records) const;
  // Survivor selection for greedy step-1 logs: per-slot non-dominated
  // kinds crossed into combinations (capped like select_survivors).
  std::vector<ddt::DdtCombination> select_survivors_greedy(
      const std::vector<SimulationRecord>& step1_records,
      std::size_t slots) const;
  std::vector<SimulationRecord> run_step2(
      const CaseStudy& study,
      const std::vector<ddt::DdtCombination>& survivors,
      SimulationCache* cache = nullptr) const;
  std::vector<SimulationRecord> aggregate(
      const std::vector<SimulationRecord>& step2_records) const;

  const energy::EnergyModel& model() const noexcept { return model_; }
  const ExplorationOptions& options() const noexcept { return options_; }

 private:
  // Runs one simulation per unit index in [0, count), fanned over
  // options().jobs lanes, writing records into index-addressed slots.
  // `step` labels the StepProgress events this fan emits.
  std::vector<SimulationRecord> fan_simulations(
      std::size_t count,
      const std::function<const Scenario&(std::size_t)>& scenario_of,
      const std::function<const ddt::DdtCombination&(std::size_t)>& combo_of,
      SimulationCache* cache, int step) const;

  energy::EnergyModel model_;
  ExplorationOptions options_;
};

}  // namespace ddtr::core

