// ddtr — the command-line front end of the exploration framework, the
// counterpart of the paper's "fully automated tools" (§3.2/§3.3 tool
// support, Figure 2). Subcommands:
//
//   ddtr apps                             list the registered workloads
//   ddtr presets                          list the synthetic network presets
//   ddtr tracegen  --preset P [...]       generate a trace file
//   ddtr traceparse FILE                  extract network parameters
//   ddtr explore   --app A [...]          run the 3-step methodology
//   ddtr pareto    --log FILE [...]       post-process a result log
//   ddtr cache     OP DIR                 inspect/maintain a cache dir
//   ddtr tracecheck FILE                  validate a --trace output file
//
// `explore --app` accepts ANY workload in api::registry() — the four paper
// studies are just the built-in registrations. Every exploration writes a
// ResultLog that `pareto` can re-process later (the paper's "log files ->
// Perl post-processing" flow).
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/ddtr.h"
#include "core/cache_inspect.h"
#include "core/report.h"
#include "core/result_log.h"
#include "nettrace/generator.h"
#include "nettrace/parser.h"
#include "nettrace/presets.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/table.h"

namespace {

using namespace ddtr;

// Usage text is generated from the single sources of truth — the workload
// registry and energy::kMetricNames — so it cannot drift from the code.
std::string app_list() {
  std::ostringstream os;
  bool first = true;
  for (const std::string& name : api::registry().names()) {
    if (!first) os << '|';
    os << name;
    first = false;
  }
  return os.str();
}

std::string metric_list() {
  std::ostringstream os;
  bool first = true;
  for (const char* name : energy::kMetricNames) {
    if (!first) os << ' ';
    os << name;
    first = false;
  }
  return os.str();
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  ddtr apps\n"
      "  ddtr ddts\n"
      "  ddtr presets\n"
      "  ddtr tracegen --preset NAME [--packets N] [--seed-offset K] "
      "[--out FILE]\n"
      "  ddtr traceparse FILE\n"
      "  ddtr explore --app " << app_list() << " [--scale S] "
      "[--jobs N] [--greedy] [--progress]\n"
      "               [--survivor-cap F] [--cache-dir DIR] [--log FILE] "
      "[--csv PREFIX]\n"
      "               [--trace FILE]\n"
      "    --jobs N: concurrent simulation lanes (default 1; 0 = one per\n"
      "              hardware thread); output is identical at any N\n"
      "    --greedy: per-slot greedy step 1 (fewer simulations)\n"
      "    --progress: per-step simulation progress on stderr\n"
      "    --cache-dir DIR: persist the simulation cache across runs in\n"
      "              DIR; a warm rerun executes 0 simulations and emits\n"
      "              an identical report\n"
      "    --trace FILE: write a Chrome trace_event JSON span timeline of\n"
      "              the run (open in Perfetto / chrome://tracing), ending\n"
      "              with a `metrics` event that dumps the metrics registry;\n"
      "              purely observational — reports are byte-identical\n"
      "              either way\n"
      "  ddtr pareto --log FILE [--app NAME] [--x METRIC] [--y METRIC]\n"
      "  ddtr cache stats|verify|clear DIR\n"
      "  ddtr tracecheck FILE\n"
      "    validate a --trace file: well-formed Chrome trace_event JSON\n"
      "    with balanced begin/end spans per thread and every sim span\n"
      "    labelled with its combo and scenario (exit 1 otherwise)\n"
      "metrics: " << metric_list() << '\n';
  return 2;
}

// Minimal flag parsing: `--name value` pairs, valueless boolean flags
// (`--greedy`), and positionals. A `--flag` followed by another flag — or
// by nothing — is recorded with an empty value, so commands can tell
// "boolean flag given" apart from "value missing" and error on the latter
// instead of silently swallowing the flag as a positional.
struct Args {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;

  bool has(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k == name) return true;
    }
    return false;
  }

  // A flag that takes a value: returns it when given, std::nullopt when
  // absent, and throws when the flag was given without a value.
  std::optional<std::string> valued(const std::string& name) const {
    for (const auto& [k, v] : flags) {
      if (k != name) continue;
      if (v.empty()) {
        throw std::runtime_error("flag --" + name + " requires a value");
      }
      return v;
    }
    return std::nullopt;
  }

  // A flag that must be present with a value.
  std::string require(const std::string& name) const {
    auto v = valued(name);
    if (!v) {
      throw std::runtime_error("missing required flag --" + name);
    }
    return *v;
  }

  // The first given flag that is not in `accepted`, if any.
  std::optional<std::string> unknown_flag(
      const std::vector<std::string_view>& accepted) const {
    for (const auto& [k, v] : flags) {
      if (std::find(accepted.begin(), accepted.end(), k) == accepted.end()) {
        return k;
      }
    }
    return std::nullopt;
  }
};

// Validated numeric flag values. std::stoul/std::stod alone would let a
// malformed value escape as an uncaught std::invalid_argument (an ugly
// crash instead of a usage error) — and stoul would happily wrap "-1" to
// 2^64-1 or accept trailing garbage ("10x"). Every numeric flag goes
// through one of these; the thrown runtime_error surfaces as a clean
// "error: ..." message.
std::size_t parse_count_flag(const std::string& flag,
                             const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("flag --" + flag +
                             " expects a non-negative integer, got '" +
                             value + "'");
  }
  try {
    return std::stoul(value);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("flag --" + flag + " value '" + value +
                             "' is out of range");
  }
}

double parse_double_flag(const std::string& flag, const std::string& value) {
  std::size_t consumed = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(value, &consumed);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error("flag --" + flag + " expects a number, got '" +
                             value + "'");
  } catch (const std::out_of_range&) {
    throw std::runtime_error("flag --" + flag + " value '" + value +
                             "' is out of range");
  }
  if (consumed != value.size()) {
    throw std::runtime_error("flag --" + flag + " expects a number, got '" +
                             value + "'");
  }
  return parsed;
}

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      const bool has_value =
          i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
      args.flags.emplace_back(name, has_value ? argv[++i] : "");
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

// Writes one output file through `write`, checking the stream after the
// final flush. A file that cannot be written (a missing directory, a full
// disk) is reported as "error: cannot write PATH" and gives false, so the
// command exits 1 instead of claiming a file it never wrote.
bool write_output(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path);
  if (os) write(os);
  os.close();
  if (os.fail()) {
    std::cerr << "error: cannot write " << path << '\n';
    return false;
  }
  return true;
}

int cmd_apps() {
  support::TextTable table({"name", "description"});
  for (const std::string& name : api::registry().names()) {
    table.add_row({name, api::registry().info(name).description});
  }
  table.print(std::cout);
  std::cout << "\nexplore any of them: ddtr explore --app NAME\n";
  return 0;
}

// ddtr ddts — the DDT library as the explorer sees it, generated from the
// same kind table that drives name parsing (ddt/kinds.cc).
int cmd_ddts() {
  support::TextTable table({"name", "description"});
  for (ddt::DdtKind kind : ddt::kAllDdtKinds) {
    table.add_row({std::string(ddt::to_string(kind)),
                   std::string(ddt::describe(kind))});
  }
  table.print(std::cout);
  std::cout << '\n'
            << ddt::kAllDdtKinds.size()
            << " kinds; HASH is offered on keyed slots only "
            << "(accounting v" << ddt::kDdtAccountingVersion << ")\n";
  return 0;
}

int cmd_presets() {
  support::TextTable table({"name", "nodes", "rate_pps", "burstiness",
                            "mtu", "http", "description"});
  for (const net::NetworkPreset& p : net::all_network_presets()) {
    table.add_row({p.name, std::to_string(p.node_count),
                   support::format_double(p.mean_rate_pps, 0),
                   support::format_double(p.burstiness, 1),
                   std::to_string(p.mtu),
                   support::format_percent(p.http_fraction, 0),
                   p.description});
  }
  table.print(std::cout);
  return 0;
}

int cmd_tracegen(const Args& args) {
  const std::string preset_name = args.require("preset");
  net::TraceGenerator::Options options;
  if (const auto packets = args.valued("packets")) {
    options.packet_count = parse_count_flag("packets", *packets);
  }
  if (const auto offset = args.valued("seed-offset")) {
    options.seed_offset = parse_count_flag("seed-offset", *offset);
  }
  const net::Trace trace =
      net::TraceGenerator::generate(net::network_preset(preset_name),
                                    options);
  if (const auto out = args.valued("out")) {
    if (!write_output(*out, [&](std::ostream& os) { trace.save(os); })) {
      return 1;
    }
    std::cout << "wrote " << trace.size() << " packets to " << *out << '\n';
  } else {
    trace.save(std::cout);
  }
  return 0;
}

int cmd_traceparse(const Args& args) {
  if (args.positional.empty()) return usage();
  std::ifstream is(args.positional[0]);
  if (!is) {
    std::cerr << "cannot open " << args.positional[0] << '\n';
    return 1;
  }
  const net::Trace trace = net::Trace::load(is);
  const net::NetworkParams params = net::TraceParser::extract(trace);
  support::TextTable table({"parameter", "value"});
  table.add_row({"trace", params.trace_name});
  table.add_row({"packets", std::to_string(params.packet_count)});
  table.add_row({"duration_s", support::format_double(params.duration_s, 3)});
  table.add_row({"nodes", std::to_string(params.node_count)});
  table.add_row({"flows", std::to_string(params.flow_count)});
  table.add_row(
      {"throughput_bps", support::format_double(params.throughput_bps, 0)});
  table.add_row({"mean_packet_B",
                 support::format_double(params.mean_packet_bytes, 1)});
  table.add_row({"max_packet_B", std::to_string(params.max_packet_bytes)});
  table.add_row({"http_fraction",
                 support::format_percent(params.http_fraction)});
  table.add_row({"udp_fraction",
                 support::format_percent(params.udp_fraction)});
  table.print(std::cout);
  return 0;
}

int cmd_explore(const Args& args) {
  const std::string app = args.require("app");
  if (!api::registry().contains(app)) {
    std::cerr << "error: unknown app '" << app << "' (registered: "
              << app_list() << ")\n";
    return 2;
  }
  // Every flag is validated up front: a bad --jobs or a missing --log
  // value must fail before traces are generated and the exploration runs,
  // not after the work is done.
  double scale = 0.25;
  if (const auto s = args.valued("scale")) {
    scale = parse_double_flag("scale", *s);
    if (const std::string reason = core::scale_error(scale); !reason.empty()) {
      throw std::runtime_error("flag --" + reason + ", got '" + *s + "'");
    }
  }
  const auto log_path = args.valued("log");
  const auto csv_prefix = args.valued("csv");
  const auto jobs = args.valued("jobs");
  const std::size_t job_count =
      jobs ? parse_count_flag("jobs", *jobs) : std::size_t{1};
  const auto survivor_cap = args.valued("survivor-cap");
  const double survivor_cap_fraction =
      survivor_cap ? parse_double_flag("survivor-cap", *survivor_cap) : 0.0;
  if (const std::string reason =
          core::survivor_cap_error(survivor_cap_fraction);
      !reason.empty()) {
    throw std::runtime_error("flag --" + reason + ", got '" + *survivor_cap +
                             "'");
  }
  const auto cache_dir = args.valued("cache-dir");
  const auto trace_path = args.valued("trace");

  api::Exploration session(api::registry().make_study(
      app, core::CaseStudyOptions{}.scaled(scale)));
  // Span tracing is observational only: the report (and the warm-cache
  // byte-identity guarantee) is unaffected by --trace.
  std::optional<obs::TraceWriter> tracer;
  if (trace_path) {
    tracer.emplace();
    session.trace_sink(&*tracer);
  }
  if (jobs) session.jobs(job_count);
  if (survivor_cap) session.survivor_cap(survivor_cap_fraction);
  if (cache_dir) session.cache_dir(*cache_dir);
  if (args.has("greedy")) {
    session.step1_policy(core::Step1Policy::kGreedyPerSlot);
  }
  if (args.has("progress")) {
    session.on_progress([](const core::StepProgress& p) {
      // One line per ~10% (and at the edges) to keep stderr readable.
      const std::size_t stride = std::max<std::size_t>(1, p.total / 10);
      if (p.done == 0 || p.done == p.total || p.done % stride == 0) {
        std::cerr << "[step " << p.step << "] " << p.done << '/' << p.total
                  << " simulations\n";
      }
    });
  }

  const core::ExplorationReport& report = session.run();
  bool written = true;  // every requested output file was written
  if (tracer) {
    // The registry dump rides along as one instant event, one arg per
    // instrument ("explore.runs": "counter 1"), so the trace alone shows
    // the run's counters and histograms.
    obs::TraceArgs metrics;
    std::istringstream lines(obs::registry().render_text());
    for (std::string kind, name, rest;
         lines >> kind >> name && std::getline(lines, rest);) {
      metrics.set(name, kind + rest);
    }
    tracer->instant("metrics", "obs", std::move(metrics));
    if (tracer->write_file(*trace_path)) {
      std::cerr << "wrote " << tracer->event_count() << " trace events to "
                << *trace_path << '\n';
    } else {
      std::cerr << "error: cannot write " << *trace_path << '\n';
      written = false;
    }
  }

  std::cout << "application: " << report.app_name << '\n'
            << "configurations: " << report.scenario_count << '\n'
            << "exhaustive simulations: " << report.exhaustive_simulations
            << '\n'
            << "reduced simulations:   " << report.reduced_simulations()
            << '\n'
            << "executed simulations:  " << report.executed_simulations()
            << " (cache hit rate "
            << support::format_percent(report.cache_hit_rate()) << ")\n";
  if (cache_dir) {
    std::cout << "persistent cache:      loaded " << report.persistent_loaded
              << ", stored " << report.persistent_stored << " records in "
              << *cache_dir << '\n';
  }
  std::cout << "survivors after step 1: " << report.survivors.size() << '\n'
            << "Pareto-optimal combinations:\n";
  for (const auto& r : report.pareto_records()) {
    std::cout << "  " << r.combo.label() << "  energy "
              << support::format_double(r.metrics.energy_mj, 4)
              << " mJ, time "
              << support::format_double(r.metrics.time_s * 1e3, 3)
              << " ms, accesses " << support::format_count(r.metrics.accesses)
              << ", footprint "
              << support::format_bytes(r.metrics.footprint_bytes) << '\n';
  }
  std::cout << "\nper-metric best combinations (step 2 logs):\n";
  core::print_best_by_metric(std::cout, report.step2_records);

  if (log_path) {
    if (write_output(*log_path, [&](std::ostream& os) {
          os << report.serialized_records();
        })) {
      std::cout << "\nwrote "
                << report.step1_records.size() + report.step2_records.size()
                << " records to " << *log_path << '\n';
    } else {
      written = false;
    }
  }
  if (csv_prefix) {
    const auto& records = report.step2_records;
    if (write_output(*csv_prefix + "_records.csv",
                     [&](std::ostream& os) {
                       core::write_records_csv(os, records);
                     }) &&
        write_output(*csv_prefix + "_time_energy.csv",
                     [&](std::ostream& os) {
                       core::write_pareto_csv(os, records, 1, 0);
                     }) &&
        write_output(*csv_prefix + "_accesses_footprint.csv",
                     [&](std::ostream& os) {
                       core::write_pareto_csv(os, records, 2, 3);
                     })) {
      std::cout << "wrote " << *csv_prefix << "_{records,time_energy,"
                << "accesses_footprint}.csv\n";
    } else {
      written = false;
    }
  }
  return written ? 0 : 1;
}

// ddtr cache <stats|verify|clear> DIR — inspection and maintenance of a
// persistent-cache directory.
int cmd_cache(const Args& args) {
  if (args.positional.size() != 2) return usage();
  const std::string& op = args.positional[0];
  const std::string& dir = args.positional[1];

  if (op == "stats") {
    const core::CacheStats stats = core::inspect_cache(dir);
    support::TextTable table({"property", "value"});
    table.add_row({"directory", dir});
    table.add_row({"bytes", support::format_bytes(stats.bytes)});
    table.add_row({"entries", std::to_string(stats.entries)});
    table.add_row({"duplicates", std::to_string(stats.duplicates)});
    table.add_row({"corrupt entries", std::to_string(stats.corrupt)});
    table.print(std::cout);
    if (!stats.apps.empty()) {
      std::cout << '\n';
      support::TextTable apps({"workload", "entries"});
      for (const auto& [name, count] : stats.apps) {
        apps.add_row({name, std::to_string(count)});
      }
      apps.print(std::cout);
    }
    if (!stats.model_fingerprints.empty()) {
      std::cout << '\n';
      support::TextTable models({"model fingerprint", "entries"});
      for (const auto& [fingerprint, count] : stats.model_fingerprints) {
        models.add_row({fingerprint, std::to_string(count)});
      }
      models.print(std::cout);
    }
    return 0;
  }

  if (op == "verify") {
    const core::VerifyReport report = core::verify_cache(dir);
    const auto& [path, check] = report;
    support::TextTable table({"file", "header", "entries", "corrupt",
                              "torn tail bytes"});
    if (!check.present) {
      table.add_row({path, "absent", "-", "-", "-"});
    } else if (check.empty) {
      // Zero-length: the scar of a crash before the first write —
      // tolerated, rewritten by the next store.
      table.add_row({path, "empty", "0", "0", "0"});
    } else {
      table.add_row({path, check.header_valid ? "ok" : "INVALID",
                     std::to_string(check.entries_ok),
                     std::to_string(check.entries_corrupt),
                     std::to_string(check.trailing_bytes)});
    }
    table.print(std::cout);
    std::cout << (report.ok() ? "cache verify: OK\n"
                              : "cache verify: CORRUPT\n");
    return report.ok() ? 0 : 1;
  }

  if (op == "clear") {
    const std::size_t removed = core::clear_cache(dir);
    std::cout << "removed " << removed << " cache file"
              << (removed == 1 ? "" : "s") << " from " << dir << '\n';
    return 0;
  }

  std::cerr << "error: unknown cache operation '" << op
            << "' (stats|verify|clear)\n";
  return 2;
}

std::optional<std::size_t> metric_index(const std::string& name) {
  for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
    if (name == energy::kMetricNames[m]) return m;
  }
  return std::nullopt;
}

int cmd_pareto(const Args& args) {
  const std::string log_path = args.require("log");
  std::ifstream is(log_path);
  if (!is) {
    std::cerr << "cannot open " << log_path << '\n';
    return 1;
  }
  core::ResultLog log = core::ResultLog::load(is);
  std::vector<core::SimulationRecord> records = log.records();
  if (const auto app = args.valued("app")) records = log.for_app(*app);

  std::size_t mx = 1, my = 0;  // default: time vs energy
  if (const auto x = args.valued("x")) {
    const auto idx = metric_index(*x);
    if (!idx) return usage();
    mx = *idx;
  }
  if (const auto y = args.valued("y")) {
    const auto idx = metric_index(*y);
    if (!idx) return usage();
    my = *idx;
  }

  std::vector<energy::Metrics> points;
  for (const auto& r : records) points.push_back(r.metrics);
  const auto front = core::pareto_front_2d(points, mx, my);
  support::TextTable table({"combination", "network", "config",
                            energy::kMetricNames[mx],
                            energy::kMetricNames[my]});
  for (std::size_t idx : front) {
    const auto v = points[idx].as_array();
    table.add_row({records[idx].combo.label(), records[idx].network,
                   records[idx].config, support::format_double(v[mx], 6),
                   support::format_double(v[my], 6)});
  }
  table.print(std::cout);
  std::cout << front.size() << " Pareto-optimal points out of "
            << records.size() << " records\n";
  return 0;
}

// ddtr tracecheck FILE — the CI-facing validator for --trace output:
// strict JSON, the trace_event document shape, balanced begin/end spans
// per (pid, tid), and a combo and scenario label on every sim span. Exit
// 1 with a one-line diagnostic on any defect.
int cmd_tracecheck(const Args& args) {
  if (args.positional.size() != 1) return usage();
  std::ifstream is(args.positional[0], std::ios::binary);
  if (!is) {
    std::cerr << "cannot open " << args.positional[0] << '\n';
    return 1;
  }
  std::ostringstream content;
  content << is.rdbuf();
  const std::string problem = obs::check_trace(content.str());
  if (!problem.empty()) {
    std::cerr << "tracecheck: " << args.positional[0] << ": " << problem
              << '\n';
    return 1;
  }
  std::cout << "tracecheck: " << args.positional[0] << ": OK\n";
  return 0;
}

// A subcommand: its name, every flag it accepts, and its entry point.
// Any other flag is a usage error, so a misspelled `--scael` fails instead
// of silently running with the default scale.
struct Command {
  std::string_view name;
  std::vector<std::string_view> flags;
  int (*run)(const Args& args);
};

const std::vector<Command>& commands() {
  static const std::vector<Command> table = {
      {"apps", {}, [](const Args&) { return cmd_apps(); }},
      {"ddts", {}, [](const Args&) { return cmd_ddts(); }},
      {"presets", {},
       [](const Args&) { return cmd_presets(); }},
      {"tracegen", {"preset", "packets", "seed-offset", "out"},
       [](const Args& a) { return cmd_tracegen(a); }},
      {"traceparse", {},
       [](const Args& a) { return cmd_traceparse(a); }},
      {"explore",
       {"app", "scale", "jobs", "greedy", "progress", "survivor-cap",
        "cache-dir", "log", "csv", "trace"},
       [](const Args& a) { return cmd_explore(a); }},
      {"pareto", {"log", "app", "x", "y"},
       [](const Args& a) { return cmd_pareto(a); }},
      {"cache", {},
       [](const Args& a) { return cmd_cache(a); }},
      {"tracecheck", {},
       [](const Args& a) { return cmd_tracecheck(a); }},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Args args = parse_args(argc, argv, 2);
  for (const Command& c : commands()) {
    if (c.name != command) continue;
    if (const auto flag = args.unknown_flag(c.flags)) {
      std::cerr << "error: unknown flag --" << *flag << '\n';
      return 2;
    }
    try {
      return c.run(args);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
  }
  return usage();
}
