// Reproduces the paper's headline comparisons (§1, §4, §5):
//  * step 2 vs the original NetBench implementations (both dominant DDTs
//    as singly linked lists): energy savings up to 80%, performance
//    improvement up to 22%;
//  * step 3 trade-off extremes: up to 93% energy reduction and up to 48%
//    performance spread among Pareto-optimal choices;
//  * "without any increase in memory footprint and memory accesses".
#include <iostream>

#include "bench_common.h"
#include "core/pareto.h"
#include "ddt/factory.h"
#include "support/table.h"

int main() {
  using namespace ddtr;

  std::cout << "== Headline: refined DDTs vs original (all-SLL) NetBench "
               "implementations ==\n\n";

  support::TextTable table({"Application", "Energy saving", "Time saving",
                            "Accesses saving", "Footprint saving",
                            "best combo (energy)"});
  double best_energy_saving = 0.0;
  double best_time_saving = 0.0;
  for (const core::ExplorationReport& report : bench::all_reports()) {
    // Original implementation: SLL for every dominant structure, on the
    // representative scenario (present in step 1's full factorial space).
    const core::SimulationRecord* original = nullptr;
    for (const auto& r : report.step1_records) {
      if (r.combo.label() == "SLL+SLL") original = &r;
    }

    // The refined choice: the best-energy member of the step-1 space that
    // does not increase footprint or accesses relative to the original
    // (the paper's "without any increase in memory footprint and memory
    // accesses" claim).
    const core::SimulationRecord* refined = nullptr;
    for (const auto& r : report.step1_records) {
      if (r.metrics.footprint_bytes > original->metrics.footprint_bytes ||
          r.metrics.accesses > original->metrics.accesses) {
        continue;
      }
      if (refined == nullptr ||
          r.metrics.energy_mj < refined->metrics.energy_mj) {
        refined = &r;
      }
    }

    const auto saving = [](double orig, double now) {
      return orig > 0.0 ? 1.0 - now / orig : 0.0;
    };
    const double e = saving(original->metrics.energy_mj,
                            refined->metrics.energy_mj);
    const double t =
        saving(original->metrics.time_s, refined->metrics.time_s);
    best_energy_saving = std::max(best_energy_saving, e);
    best_time_saving = std::max(best_time_saving, t);
    table.add_row(
        {report.app_name, support::format_percent(e),
         support::format_percent(t),
         support::format_percent(
             saving(static_cast<double>(original->metrics.accesses),
                    static_cast<double>(refined->metrics.accesses))),
         support::format_percent(
             saving(static_cast<double>(original->metrics.footprint_bytes),
                    static_cast<double>(refined->metrics.footprint_bytes))),
         refined->combo.label()});
  }
  table.print(std::cout);
  std::cout << "\nBest energy saving: "
            << support::format_percent(best_energy_saving)
            << " (paper: up to 80%); best time saving: "
            << support::format_percent(best_time_saving)
            << " (paper: up to 22%)\n";

  std::cout << "\n== Headline: step-3 extremes across Pareto-optimal "
               "choices ==\n\n";
  double max_energy_span = 0.0;
  double max_time_span = 0.0;
  for (const core::ExplorationReport& report : bench::all_reports()) {
    std::vector<energy::Metrics> pool;
    for (const auto& r : report.step2_records) pool.push_back(r.metrics);
    std::vector<energy::Metrics> pareto;
    for (std::size_t idx : core::pareto_filter(pool)) {
      pareto.push_back(pool[idx]);
    }
    max_energy_span =
        std::max(max_energy_span, core::tradeoff_span(pareto, 0));
    max_time_span = std::max(max_time_span, core::tradeoff_span(pareto, 1));
  }
  std::cout << "max energy reduction among Pareto-optimal choices: "
            << support::format_percent(max_energy_span)
            << " (paper: up to 93%)\n"
            << "max performance spread among Pareto-optimal choices: "
            << support::format_percent(max_time_span)
            << " (paper: up to 48%)\n\n";
  return 0;
}
