// ddtr benchmark driver: a single-process, closed-loop client that runs
// back-to-back passes of the paper's three-step exploration and reports
// host wall time per pass and per app. One pass explores the four
// built-in registry workloads (route, url, ipchains, drr) in Table 1
// order at scale 1.0 with the paper's energy model, through the public
// API only.
//
//   ddtr_perfbench --workload cold_serial|warm_replay
//                  --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE]
//
// Workloads (both at jobs = 1):
//   cold_serial  every app gets a fresh empty cache_dir per pass.
//   warm_replay  each app's cache_dir is filled once before timing; each
//                pass opens fresh sessions on it and executes nothing.
//
// Every pass is checked against a reference computed in the same run
// (jobs = 1, no cache_dir): byte-identical serialized_records(), equal
// logical counts, and zero executed simulations on warm_replay. At seed 0
// the reference itself must match the digests and Table 1 counts
// committed below. A failed check counts the pass as failed and the run
// goes on.
//
// --trace 0 prints the end-to-end metrics: the median of each timing on
// cold_serial, its 1st percentile on warm_replay (see Statistic). --trace 1
// runs untraced passes for half the time, then traced passes that rebuild
// explore() from the public step methods, with every app behind a timing
// wrapper; on cold_serial the last quarter of the time goes to traced
// passes at jobs = min(4, available cores), the only ones that give the
// thread pool work. It prints the per-layer metrics and writes the spans
// (Chrome trace_event JSON, through obs::TraceWriter) to --trace-out. All
// times are host wall time on std::chrono::steady_clock, never the
// simulated time of the model.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": passes, "failed": passes, "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/ddtr.h"
#include "core/persistent_cache.h"
#include "core/simulation_cache.h"
#include "nettrace/trace_store.h"
#include "obs/trace.h"

#include "bench_math.h"

namespace {

using namespace ddtr;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Table 1 order; the registry registers the built-ins in this order too.
constexpr std::array<const char*, 4> kApps = {"route", "url", "ipchains",
                                              "drr"};
constexpr std::size_t kAppCount = kApps.size();
// Cold trace-store rebuilds timed for setup_s (median reported).
constexpr int kSetupReps = 15;
// Traced passes stop here even when time remains: a warm pass takes a
// few ms, and the trace file must stay small.
constexpr std::size_t kMaxTracedPasses = 64;

// Reference values at seed 0, committed with the benchmark: the Table 1
// counts and a digest of each app's serialized_records().
struct Golden {
  const char* app;
  std::size_t exhaustive;
  std::size_t reduced;
  std::size_t survivors;
  const char* digest;
  std::size_t bytes;
};
constexpr std::array<Golden, kAppCount> kGoldenSeed0 = {{
    {"route", 1694, 219, 7, "e64428a11870a90f", 26332},
    {"url", 605, 176, 11, "524814d8c9fb8353", 18470},
    {"ipchains", 2772, 279, 7, "b3f5c8b1730d9e49", 35188},
    {"drr", 660, 197, 13, "663b73ed19728f5a", 22676},
}};

enum class Workload { kColdSerial, kWarmReplay };

struct Options {
  Workload workload = Workload::kColdSerial;
  std::string workload_name;
  std::size_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "ddtr_perfbench: " << problem
            << "\nusage: ddtr_perfbench --workload cold_serial|warm_replay "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&](const std::string& key) {
    auto it = flags.find(key);
    if (it == flags.end()) usage("missing --" + key);
    return it->second;
  };
  try {
    o.workload_name = need("workload");
    if (o.workload_name == "cold_serial") {
      o.workload = Workload::kColdSerial;
    } else if (o.workload_name == "warm_replay") {
      o.workload = Workload::kWarmReplay;
    } else {
      usage("unknown workload " + o.workload_name);
    }
    o.seed = std::stoul(need("seed"));
    o.seconds = std::stod(need("seconds"));
    o.trace = need("trace") == "1";
    o.work_dir = need("work-dir");
    if (flags.contains("trace-out")) o.trace_out = flags["trace-out"];
  } catch (const std::logic_error&) {
    usage("malformed number");
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  if (o.trace && o.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return o;
}

std::size_t available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- reference and checks ---------------------------------------------

struct Reference {
  std::string records;
  std::size_t exhaustive = 0;
  std::size_t step1 = 0;
  std::size_t step2 = 0;
  std::size_t executed = 0;
  std::size_t survivors = 0;
};

struct App {
  std::string name;
  core::CaseStudy study;
  Reference ref;
  std::string warm_dir;
};

// "" when the report matches the reference, else why not.
std::string check_report(const App& app, const core::ExplorationReport& report,
                         const std::string& records, bool warm) {
  if (std::string d = perfbench::compare_records(records, app.ref.records);
      !d.empty()) {
    return app.name + ": " + d;
  }
  if (report.exhaustive_simulations != app.ref.exhaustive ||
      report.step1_simulations != app.ref.step1 ||
      report.step2_simulations != app.ref.step2 ||
      report.survivors.size() != app.ref.survivors) {
    return app.name + ": logical counts differ from the reference";
  }
  const std::size_t want_executed = warm ? 0 : app.ref.executed;
  if (report.executed_simulations() != want_executed) {
    return app.name + ": executed " +
           std::to_string(report.executed_simulations()) +
           " simulations, expected " + std::to_string(want_executed);
  }
  return "";
}

// The seed-0 golden check of the reference: "" or why it failed.
std::string check_golden(const std::vector<App>& apps) {
  for (std::size_t i = 0; i < kAppCount; ++i) {
    const Golden& g = kGoldenSeed0[i];
    const Reference& r = apps[i].ref;
    if (r.exhaustive != g.exhaustive || r.step1 + r.step2 != g.reduced ||
        r.survivors != g.survivors) {
      return std::string(g.app) + ": Table 1 counts " +
             std::to_string(r.exhaustive) + "/" +
             std::to_string(r.step1 + r.step2) + "/" +
             std::to_string(r.survivors) + ", expected " +
             std::to_string(g.exhaustive) + "/" + std::to_string(g.reduced) +
             "/" + std::to_string(g.survivors);
    }
    if (std::string d = perfbench::compare_digest(r.records, g.digest, g.bytes);
        !d.empty()) {
      return std::string(g.app) + ": " + d;
    }
  }
  return "";
}

// ---- set-up --------------------------------------------------------------

std::vector<App> build_apps(const core::CaseStudyOptions& options) {
  std::vector<App> apps;
  for (const char* name : kApps) {
    apps.push_back({name, api::registry().make_study(name, options), {}, {}});
  }
  return apps;
}

// Builds the studies `reps` times and returns the build times. With
// `cold_store` the global trace store is emptied first, so each build
// generates its traces again.
std::vector<double> time_setup(const core::CaseStudyOptions& options,
                               int reps, bool cold_store,
                               std::vector<App>& apps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    apps.clear();  // frees the previous studies outside the timing
    if (cold_store) net::TraceStore::global().clear();
    const Clock::time_point t0 = Clock::now();
    apps = build_apps(options);
    samples.push_back(seconds_since(t0));
  }
  return samples;
}

void compute_references(std::vector<App>& apps) {
  for (App& app : apps) {
    api::Exploration session(app.study);
    session.jobs(1);
    const core::ExplorationReport& report = session.run();
    app.ref.records = report.serialized_records();
    app.ref.exhaustive = report.exhaustive_simulations;
    app.ref.step1 = report.step1_simulations;
    app.ref.step2 = report.step2_simulations;
    app.ref.executed = report.executed_simulations();
    app.ref.survivors = report.survivors.size();
  }
}

// ---- untraced passes -------------------------------------------------------

struct PassSample {
  double pass_s = 0.0;
  std::array<double, kAppCount> explore_s{};
  std::string failure;  // "" = every check passed
};

PassSample run_pass(const std::vector<App>& apps, bool warm,
                    const std::string& pass_dir) {
  PassSample sample;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const App& app = apps[i];
    const Clock::time_point t0 = Clock::now();
    api::Exploration session(app.study);
    session.jobs(1).cache_dir(warm ? app.warm_dir
                                   : pass_dir + "/" + app.name);
    const core::ExplorationReport& report = session.run();
    const std::string records = report.serialized_records();
    sample.explore_s[i] = seconds_since(t0);
    sample.pass_s += sample.explore_s[i];
    if (sample.failure.empty()) {
      sample.failure = check_report(app, report, records, warm);
    }
  }
  return sample;
}

// ---- traced passes ---------------------------------------------------------

// Spans recorded from the benchmark's side of each public layer call.
// Each span goes to the obs::TraceWriter (written at the end) and to an
// in-memory list from which self times are computed.
class Tracer {
 public:
  struct Record {
    std::string layer;
    std::uint64_t tid;
    std::size_t pass;
    Clock::time_point t0;
    Clock::time_point t1;
  };

  class Span {
   public:
    Span(Tracer& tracer, std::string name, std::string layer,
         obs::TraceArgs args)
        : tracer_(tracer), name_(std::move(name)), layer_(std::move(layer)) {
      tracer_.writer_.begin(name_, layer_, std::move(args));
      t0_ = Clock::now();
    }
    ~Span() {
      const Clock::time_point t1 = Clock::now();
      tracer_.writer_.end(name_, layer_);
      const std::uint64_t tid =
          std::hash<std::thread::id>{}(std::this_thread::get_id());
      tracer_.add({layer_, tid, tracer_.pass(), t0_, t1});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double elapsed() const { return seconds_since(t0_); }

   private:
    Tracer& tracer_;
    std::string name_;
    std::string layer_;
    Clock::time_point t0_;
  };

  void set_pass(std::size_t pass) { pass_ = pass; }
  std::size_t pass() const { return pass_; }
  const obs::TraceWriter& writer() const { return writer_; }

  obs::TraceArgs args(const std::string& app) const {
    obs::TraceArgs a;
    a.set("pass", static_cast<std::uint64_t>(pass_)).set("app", app);
    return a;
  }

  // Self time per layer over the spans of `pass`: each span's duration
  // minus the part its direct children on the same thread cover.
  std::map<std::string, double> self_times(std::size_t pass) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::uint64_t, std::vector<const Record*>> by_thread;
    for (const Record& r : records_) {
      if (r.pass == pass) by_thread[r.tid].push_back(&r);
    }
    std::map<std::string, double> self;
    for (auto& [tid, spans] : by_thread) {
      std::sort(spans.begin(), spans.end(),
                [](const Record* a, const Record* b) {
                  return a->t0 != b->t0 ? a->t0 < b->t0 : a->t1 > b->t1;
                });
      std::vector<const Record*> stack;
      for (const Record* r : spans) {
        while (!stack.empty() && stack.back()->t1 <= r->t0) stack.pop_back();
        const double dur =
            std::chrono::duration<double>(r->t1 - r->t0).count();
        self[r->layer] += dur;
        if (!stack.empty()) self[stack.back()->layer] -= dur;
        stack.push_back(r);
      }
    }
    return self;
  }

 private:
  void add(Record r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(r));
  }

  obs::TraceWriter writer_;
  std::size_t pass_ = 0;  // written between passes only
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

// Every executed unit of a traced pass, as its timing wrapper saw it.
struct UnitRun {
  std::size_t app;
  ddt::DdtCombination combo;
  double seconds;
  prof::ProfileCounters counters;
};

class RunLog {
 public:
  void add(UnitRun run) {
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(std::move(run));
  }
  std::vector<UnitRun> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(runs_, {});
  }

 private:
  std::mutex mu_;
  std::vector<UnitRun> runs_;
};

// Forwards everything to the app it wraps and times run(): the cache key
// (name, config label, cache version) is unchanged, so records and cache
// hits are exactly those of the unwrapped study.
class TimedApp final : public apps::NetworkApplication {
 public:
  TimedApp(std::shared_ptr<apps::NetworkApplication> inner, std::size_t app,
           std::string scenario, Tracer& tracer, RunLog& log)
      : inner_(std::move(inner)),
        app_(app),
        scenario_(std::move(scenario)),
        tracer_(tracer),
        log_(log) {}

  std::string name() const override { return inner_->name(); }
  std::vector<std::string> dominant_structures() const override {
    return inner_->dominant_structures();
  }
  std::vector<std::vector<ddt::DdtKind>> slot_kinds() const override {
    return inner_->slot_kinds();
  }
  std::string config_label() const override { return inner_->config_label(); }
  std::uint32_t cache_version() const override {
    return inner_->cache_version();
  }

  apps::RunResult run(const net::Trace& trace,
                      const ddt::DdtCombination& combo) override {
    obs::TraceArgs args = tracer_.args(kApps[app_]);
    args.set("scenario", scenario_).set("combo", combo.label());
    Tracer::Span span(tracer_, "run", "apps", std::move(args));
    apps::RunResult result = inner_->run(trace, combo);
    log_.add({app_, combo, span.elapsed(), result.total});
    return result;
  }

 private:
  std::shared_ptr<apps::NetworkApplication> inner_;
  std::size_t app_;  // index into kApps
  std::string scenario_;
  Tracer& tracer_;
  RunLog& log_;
};

core::CaseStudy wrap_study(const core::CaseStudy& study, std::size_t app,
                           Tracer& tracer, RunLog& log) {
  core::CaseStudy wrapped = study;
  for (core::Scenario& scenario : wrapped.scenarios) {
    scenario.app = std::make_shared<TimedApp>(scenario.app, app,
                                              scenario.label(), tracer, log);
  }
  return wrapped;
}

// Per-layer values of one traced pass, by metric name.
using LayerSample = std::map<std::string, double>;

double value_of(const LayerSample& sample, const std::string& name) {
  const auto it = sample.find(name);
  return it == sample.end() ? 0.0 : it->second;
}

// Every per-layer metric in print order, with its unit. Counts, bytes
// and the hit rate are exact: they must repeat identically in every
// traced pass, and a traced pass that moves one fails.
struct LayerMetric {
  std::string name;
  std::string unit;
  bool exact;
};

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"nettrace.build_s", "s", false},
        {"nettrace.packets", "count", true},
        {"apps.run_s", "s", false},
        {"apps.run_s.route", "s", false},
        {"apps.run_s.url", "s", false},
        {"apps.run_s.ipchains", "s", false},
        {"apps.run_s.drr", "s", false},
        {"apps.runs", "count", true},
        {"apps.self_s", "s", false},
        {"ddt.accesses", "count", true},
        {"ddt.cpu_ops", "count", true},
        {"ddt.allocations", "count", true},
        {"ddt.ns_per_access", "ns", false},
    };
    for (ddt::DdtKind kind : ddt::kAllDdtKinds) {
      m.push_back({"ddt.run_ms." + perfbench::sanitize_kind(ddt::to_string(kind)),
                   "ms", false});
    }
    const std::vector<LayerMetric> rest = {
        {"energy.evaluate_s", "s", false},
        {"energy.self_s", "s", false},
        {"core.explorer.step1_s", "s", false},
        {"core.explorer.select_s", "s", false},
        {"core.explorer.step2_s", "s", false},
        {"core.explorer.aggregate_s", "s", false},
        {"core.explorer.executed_sims", "count", true},
        {"core.explorer.logical_sims", "count", true},
        {"core.explorer.survivors", "count", true},
        {"core.explorer.pareto_points", "count", true},
        {"core.self_s", "s", false},
        {"support.thread_pool.efficiency", "ratio", false},
        {"support.thread_pool.idle_s", "s", false},
        {"core.simulation_cache.key_s", "s", false},
        {"core.simulation_cache.lookups", "count", true},
        {"core.simulation_cache.hit_rate", "ratio", true},
        {"core.persistent_cache.load_s", "s", false},
        {"core.persistent_cache.load_entries", "count", true},
        {"core.persistent_cache.store_s", "s", false},
        {"core.persistent_cache.store_entries", "count", true},
        {"core.persistent_cache.file_bytes", "bytes", true},
        {"core.pareto.filter_s", "s", false},
        {"core.report.serialize_s", "s", false},
        {"core.report.bytes", "bytes", true},
        {"bench.self_s", "s", false},
        {"obs.trace_overhead_s", "s", false},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

// One traced pass: explore() rebuilt from the public step methods and the
// persistent-cache calls, each wrapped in a span, on wrapped studies.
LayerSample run_traced_pass(const std::vector<App>& apps,
                            const std::vector<core::CaseStudy>& wrapped,
                            std::size_t jobs, bool warm,
                            const std::string& pass_dir, Tracer& tracer,
                            RunLog& log, std::string& failure) {
  const energy::EnergyModel model = core::make_paper_energy_model();
  core::ExplorationOptions options;
  options.jobs = jobs;
  const core::ExplorationEngine engine(model, options);

  LayerSample s;
  std::size_t lookups = 0;
  std::size_t hits = 0;
  Tracer::Span pass_span(tracer, "pass", "bench", tracer.args("all"));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const App& app = apps[i];
    const core::CaseStudy& study = wrapped[i];
    const std::string dir = warm ? app.warm_dir : pass_dir + "/" + app.name;
    Tracer::Span explore_span(tracer, "explore", "core.explorer",
                              tracer.args(app.name));
    core::SimulationCache cache;
    core::PersistentSimulationCache persistent(dir);
    {
      Tracer::Span span(tracer, "load", "core.persistent_cache",
                        tracer.args(app.name));
      s["core.persistent_cache.load_entries"] +=
          static_cast<double>(persistent.load());
      persistent.seed(cache);
      s["core.persistent_cache.load_s"] += span.elapsed();
    }
    std::vector<core::SimulationRecord> step1;
    {
      Tracer::Span span(tracer, "step1", "core.explorer", tracer.args(app.name));
      step1 = engine.run_step1(study, &cache);
      s["core.explorer.step1_s"] += span.elapsed();
    }
    std::vector<ddt::DdtCombination> survivors;
    {
      Tracer::Span span(tracer, "select", "core.explorer",
                        tracer.args(app.name));
      survivors = engine.select_survivors(step1);
      s["core.explorer.select_s"] += span.elapsed();
    }
    std::vector<core::SimulationRecord> step2;
    {
      Tracer::Span span(tracer, "step2", "core.explorer", tracer.args(app.name));
      step2 = engine.run_step2(study, survivors, &cache);
      s["core.explorer.step2_s"] += span.elapsed();
    }
    const core::SimulationCache::Stats stats = cache.stats();
    {
      Tracer::Span span(tracer, "store", "core.persistent_cache",
                        tracer.args(app.name));
      s["core.persistent_cache.store_entries"] +=
          static_cast<double>(persistent.store_new(cache));
      s["core.persistent_cache.store_s"] += span.elapsed();
    }
    std::error_code ec;
    const auto bytes = fs::file_size(persistent.file_path(), ec);
    s["core.persistent_cache.file_bytes"] += ec ? 0.0 : static_cast<double>(bytes);
    std::vector<core::SimulationRecord> aggregated;
    {
      Tracer::Span span(tracer, "aggregate", "core.explorer",
                        tracer.args(app.name));
      aggregated = engine.aggregate(step2);
      s["core.explorer.aggregate_s"] += span.elapsed();
    }
    {
      Tracer::Span span(tracer, "filter", "core.pareto", tracer.args(app.name));
      std::vector<energy::Metrics> points;
      for (const core::SimulationRecord& r : aggregated) {
        points.push_back(r.metrics);
      }
      s["core.explorer.pareto_points"] +=
          static_cast<double>(core::pareto_filter(points).size());
      s["core.pareto.filter_s"] += span.elapsed();
    }
    // The key the cache computes for every logical unit, timed here
    // because the engine's own key_of calls are not visible from outside.
    {
      Tracer::Span span(tracer, "key_of", "core.simulation_cache",
                        tracer.args(app.name));
      const core::Scenario& rep = study.scenarios.at(study.representative);
      for (const core::SimulationRecord& r : step1) {
        core::SimulationCache::key_of(rep, r.combo, model);
      }
      for (const core::Scenario& scenario : study.scenarios) {
        for (const ddt::DdtCombination& combo : survivors) {
          core::SimulationCache::key_of(scenario, combo, model);
        }
      }
      s["core.simulation_cache.key_s"] += span.elapsed();
    }
    core::ExplorationReport report;
    report.step1_records = std::move(step1);
    report.step2_records = std::move(step2);
    std::string records;
    {
      Tracer::Span span(tracer, "serialize", "core.report",
                        tracer.args(app.name));
      records = report.serialized_records();
      s["core.report.serialize_s"] += span.elapsed();
    }
    s["core.report.bytes"] += static_cast<double>(records.size());
    lookups += stats.hits + stats.misses;
    hits += stats.hits;
    const std::size_t logical =
        report.step1_records.size() + report.step2_records.size();
    s["core.explorer.executed_sims"] += static_cast<double>(stats.misses);
    s["core.explorer.logical_sims"] += static_cast<double>(logical);
    s["core.explorer.survivors"] += static_cast<double>(survivors.size());
    if (failure.empty()) {
      if (std::string d = perfbench::compare_records(records, app.ref.records);
          !d.empty()) {
        failure = app.name + " (traced): " + d;
      } else if (logical != app.ref.step1 + app.ref.step2 ||
                 stats.misses != (warm ? 0 : app.ref.executed)) {
        failure = app.name + " (traced): simulation counts differ";
      }
    }
  }

  // The app and DDT layers, from the wrappers' log of executed units.
  const std::vector<UnitRun> runs = log.take();
  std::map<ddt::DdtKind, std::pair<double, std::size_t>> per_kind;
  double run_s = 0.0;
  for (const UnitRun& r : runs) {
    run_s += r.seconds;
    s["apps.run_s." + std::string(kApps[r.app])] += r.seconds;
    s["ddt.accesses"] += static_cast<double>(r.counters.accesses());
    s["ddt.cpu_ops"] += static_cast<double>(r.counters.cpu_ops);
    s["ddt.allocations"] += static_cast<double>(r.counters.allocations);
    std::set<ddt::DdtKind> kinds(r.combo.kinds().begin(), r.combo.kinds().end());
    for (ddt::DdtKind kind : kinds) {
      per_kind[kind].first += r.seconds * 1e3;
      per_kind[kind].second += 1;
    }
  }
  // The energy model over every executed unit's counters: the engine's
  // own evaluate() calls happen inside simulate(), out of reach.
  {
    Tracer::Span span(tracer, "evaluate", "energy", tracer.args("all"));
    for (const UnitRun& r : runs) model.evaluate(r.counters);
    s["energy.evaluate_s"] = span.elapsed();
  }
  s["apps.run_s"] = run_s;
  s["apps.runs"] = static_cast<double>(runs.size());
  s["ddt.ns_per_access"] =
      s["ddt.accesses"] > 0 ? run_s * 1e9 / s["ddt.accesses"] : 0.0;
  for (ddt::DdtKind kind : ddt::kAllDdtKinds) {
    const auto it = per_kind.find(kind);
    s["ddt.run_ms." + perfbench::sanitize_kind(ddt::to_string(kind))] =
        it == per_kind.end() ? 0.0
                             : it->second.first /
                                   static_cast<double>(it->second.second);
  }
  const double fan_wall =
      s["core.explorer.step1_s"] + s["core.explorer.step2_s"];
  const double lane_time = static_cast<double>(jobs) * fan_wall;
  s["support.thread_pool.efficiency"] = lane_time > 0 ? run_s / lane_time : 0.0;
  s["support.thread_pool.idle_s"] = std::max(0.0, lane_time - run_s);
  s["core.simulation_cache.lookups"] = static_cast<double>(lookups);
  s["core.simulation_cache.hit_rate"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  s["pass_s"] = pass_span.elapsed();
  return s;
}

// ---- output ----------------------------------------------------------------

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Records a metric and prints it by name with its unit.
void emit(std::vector<Metric>& metrics, const std::string& name, double value,
          const std::string& unit, const std::string& note = "") {
  metrics.push_back({name, value, unit});
  std::cout << name << ": " << number(value) << ' ' << unit << note << '\n';
}

// The statistic a timing reports. A cold pass takes seconds, so a run
// has about a dozen, and their median is the steadiest figure. A warm
// pass takes milliseconds, and on a shared host its times fall in two
// modes (about 5 and 9 ms on a 4-vCPU Xeon VM) whose shares change from
// run to run, so the median jumps between them; the 1st percentile of
// thousands of passes stays on the fast mode.
enum class Statistic { kMedian, kP1 };

// Prints a timing's statistic with its median, tail and sample count, and
// records the statistic unless it is printed only.
void emit_timing(std::vector<Metric>& metrics, const std::string& name,
                 const std::vector<double>& samples, Statistic statistic,
                 bool printed_only = false) {
  const double median = perfbench::median(samples);
  const perfbench::Tail tail = perfbench::tail_percentile(samples);
  std::string note = statistic == Statistic::kMedian
                         ? " median"
                         : " p1 (median " + number(median) + " s)";
  note += ", n=" + std::to_string(samples.size());
  note += tail.present ? ", p" + number(tail.level) + " " +
                             number(tail.value) + " s"
                       : ", no tail (fewer than 10 samples beyond p50)";
  if (printed_only) note += " (printed only, not in the result)";
  emit(metrics, name,
       statistic == Statistic::kMedian ? median
                                       : perfbench::percentile(samples, 1.0),
       "s", note);
  if (printed_only) metrics.pop_back();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- the run ---------------------------------------------------------------

// Pass accounting: a failed check fails the pass, and the run goes on. A
// wrong reference (golden mismatch) or warm fill fails every pass, since
// every pass is compared against it.
struct Accounting {
  std::string run_failure;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  void add(const std::string& failure) {
    ++attempted;
    const std::string& why = run_failure.empty() ? failure : run_failure;
    if (why.empty()) return;
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

// Closed loop: passes back to back until `budget` seconds are used. A
// pass starts only if one more like the last still fits, so a run ends
// close to its budget; at least one pass always runs.
template <typename Pass>
void loop_passes(double budget, std::size_t max_passes, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  double last = 0.0;
  for (std::size_t n = 0; n < max_passes; ++n) {
    if (n > 0 && seconds_since(start) + last >= budget) break;
    const Clock::time_point t0 = Clock::now();
    if (!pass()) break;
    last = seconds_since(t0);
  }
}

// The traced half of a --trace 1 run: traced passes, the per-layer
// metrics and the trace file. `untraced_pass_s` is the median pass of the
// untraced half, for the tracing overhead. With `pool_lanes` > 0 the
// second half of the traced time runs traced passes at that many jobs,
// and the support.thread_pool metrics come from them alone: at jobs = 1
// the pool has no work.
void run_traced(const Options& opt, const std::vector<App>& apps,
                std::size_t pool_lanes, bool warm, const std::string& pass_dir,
                const core::CaseStudyOptions& study_options,
                double cold_setup_s, double untraced_pass_s,
                Accounting& accounting, std::vector<Metric>& metrics) {
  Tracer tracer;
  RunLog log;
  std::vector<core::CaseStudy> wrapped;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    wrapped.push_back(wrap_study(apps[i].study, i, tracer, log));
  }
  std::size_t pass_id = 0;
  std::vector<LayerSample> traced;  // at jobs = 1
  std::vector<LayerSample> pooled;  // at jobs = pool_lanes
  const auto traced_passes = [&](double budget, std::size_t jobs,
                                 std::vector<LayerSample>& out) {
    loop_passes(budget, kMaxTracedPasses, [&] {
      tracer.set_pass(++pass_id);
      std::string failure;
      LayerSample sample;
      try {
        sample = run_traced_pass(apps, wrapped, jobs, warm, pass_dir, tracer,
                                 log, failure);
      } catch (const std::exception& e) {
        failure = std::string("traced pass threw: ") + e.what();
      }
      fs::remove_all(pass_dir);
      for (const LayerMetric& m : layer_metrics()) {
        if (failure.empty() && m.exact && !traced.empty() &&
            value_of(sample, m.name) != value_of(traced.front(), m.name)) {
          failure = m.name + " did not repeat across traced passes";
        }
      }
      accounting.add(failure);
      if (!failure.empty()) return false;
      // Self time per layer; the core.* sub-layers also sum into core.
      for (const auto& [layer, self] : tracer.self_times(tracer.pass())) {
        sample[layer + ".self_s"] = self;
        if (layer.rfind("core.", 0) == 0) sample["core.self_s"] += self;
      }
      out.push_back(std::move(sample));
      return true;
    });
  };
  const double budget = opt.seconds / 2;
  traced_passes(pool_lanes > 0 ? budget / 2 : budget, 1, traced);
  if (pool_lanes > 0 && !traced.empty()) {
    traced_passes(budget / 2, pool_lanes, pooled);
  }

  std::map<std::string, std::vector<double>> columns;
  for (const LayerSample& sample : traced) {
    for (const auto& [name, value] : sample) columns[name].push_back(value);
  }
  for (const char* name :
       {"support.thread_pool.efficiency", "support.thread_pool.idle_s"}) {
    if (pooled.empty()) break;
    columns[name].clear();
    for (const LayerSample& sample : pooled) {
      columns[name].push_back(value_of(sample, name));
    }
  }
  const auto median_of = [&](const std::string& name) {
    const auto it = columns.find(name);
    return it == columns.end() ? 0.0 : perfbench::median(it->second);
  };

  // The trace store's share of set-up: cold-store builds minus builds
  // that find every trace already in the store.
  std::vector<App> rebuilt;
  const double warm_setup_s = perfbench::median(
      time_setup(study_options, kSetupReps, /*cold_store=*/false, rebuilt));
  std::set<const net::Trace*> traces;
  double packets = 0.0;
  for (const App& app : rebuilt) {
    for (const core::Scenario& scenario : app.study.scenarios) {
      if (traces.insert(scenario.trace.get()).second) {
        packets += static_cast<double>(scenario.trace->size());
      }
    }
  }
  columns["nettrace.build_s"] = {std::max(0.0, cold_setup_s - warm_setup_s)};
  columns["nettrace.packets"] = {packets};
  const double traced_pass_s = median_of("pass_s");
  columns["obs.trace_overhead_s"] = {traced_pass_s - untraced_pass_s};

  std::cout << "traced passes: " << traced.size() << " at jobs=1 (median "
            << number(traced_pass_s) << " s)";
  if (pool_lanes > 0) {
    std::cout << ", " << pooled.size() << " at jobs=" << pool_lanes;
  }
  std::cout << "; untraced median pass " << number(untraced_pass_s) << " s\n";
  for (const LayerMetric& m : layer_metrics()) {
    emit(metrics, m.name, median_of(m.name), m.unit);
  }
  if (!tracer.writer().write_file(opt.trace_out)) {
    throw std::runtime_error("cannot write trace " + opt.trace_out);
  }
}

int run(const Options& opt) {
  const std::size_t lanes = std::min<std::size_t>(4, available_cores());
  const bool warm = opt.workload == Workload::kWarmReplay;
  std::cout << "ddtr perfbench: workload=" << opt.workload_name
            << " seed=" << opt.seed << " jobs=1"
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " (closed loop, one client; host wall time)\n";

  core::CaseStudyOptions study_options = core::CaseStudyOptions{}.scaled(1.0);
  study_options.seed_offset = opt.seed;

  std::vector<App> apps;
  const std::vector<double> setup_samples =
      time_setup(study_options, kSetupReps, /*cold_store=*/true, apps);
  compute_references(apps);

  Accounting accounting;
  // Seed 0 only: the reference must equal the committed golden values.
  if (opt.seed == 0) {
    accounting.run_failure = check_golden(apps);
    std::cout << "golden seed 0: "
              << (accounting.run_failure.empty() ? "ok"
                                                 : accounting.run_failure)
              << '\n';
  } else {
    std::cout << "golden seed 0: skipped at seed " << opt.seed
              << " (cross-mode checks still run)\n";
  }
  for (const App& app : apps) {
    std::cout << "reference " << app.name << ": exhaustive "
              << app.ref.exhaustive << ", reduced "
              << app.ref.step1 + app.ref.step2 << ", survivors "
              << app.ref.survivors << ", executed " << app.ref.executed
              << ", digest " << perfbench::digest(app.ref.records) << '/'
              << app.ref.records.size() << " bytes\n";
  }

  fs::remove_all(opt.work_dir);
  fs::create_directories(opt.work_dir);
  const std::string pass_dir = opt.work_dir + "/pass";
  if (warm) {
    for (App& app : apps) {
      app.warm_dir = opt.work_dir + "/warm/" + app.name;
      api::Exploration session(app.study);
      session.jobs(lanes).cache_dir(app.warm_dir);
      const core::ExplorationReport& report = session.run();
      if (accounting.run_failure.empty()) {
        accounting.run_failure =
            check_report(app, report, report.serialized_records(), false);
      }
    }
  }

  std::vector<PassSample> passes;
  loop_passes(opt.trace ? opt.seconds / 2 : opt.seconds, SIZE_MAX, [&] {
    PassSample sample;
    try {
      sample = run_pass(apps, warm, pass_dir);
    } catch (const std::exception& e) {
      sample.failure = std::string("pass threw: ") + e.what();
    }
    fs::remove_all(pass_dir);
    accounting.add(sample.failure);
    if (sample.failure.empty()) passes.push_back(sample);
    return !(passes.empty() && accounting.attempted >= 5);  // nothing works
  });
  if (passes.empty()) passes.push_back({});

  std::vector<Metric> metrics;
  std::vector<double> pass_s;
  for (const PassSample& p : passes) pass_s.push_back(p.pass_s);
  if (opt.trace) {
    run_traced(opt, apps, warm ? 0 : lanes, warm, pass_dir, study_options,
               perfbench::median(setup_samples), perfbench::median(pass_s),
               accounting, metrics);
  } else {
    const Statistic statistic = warm ? Statistic::kP1 : Statistic::kMedian;
    emit_timing(metrics, "pass_s", pass_s, statistic);
    for (std::size_t i = 0; i < kAppCount; ++i) {
      std::vector<double> app_s;
      for (const PassSample& p : passes) app_s.push_back(p.explore_s[i]);
      // url's explore time moves by up to 1.5x between traffic seeds with
      // identical simulation counts, so a bound across seeds would gate
      // the inputs, not the code: it is printed but left out of the
      // result (apps.run_s.url still tracks it per layer).
      emit_timing(metrics, "explore_s." + std::string(kApps[i]), app_s,
                  statistic, kApps[i] == std::string("url"));
    }
    emit_timing(metrics, "setup_s", setup_samples, Statistic::kMedian);
    emit(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  }

  fs::remove_all(opt.work_dir);
  std::cout << "fail_rate: "
            << number(perfbench::fail_rate(accounting.failed,
                                           accounting.attempted))
            << " ratio (" << accounting.failed << " of "
            << accounting.attempted << " passes failed)\n";
  if (!accounting.first_failure.empty()) {
    std::cout << "first failure: " << accounting.first_failure << '\n';
  }
  print_result(accounting.failed == 0, accounting.attempted, accounting.failed,
               metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "ddtr_perfbench: " << e.what() << '\n';
    return 1;
  }
}
