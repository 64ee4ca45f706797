// Shared plumbing for the table/figure reproduction binaries: one full
// three-step exploration per case study, cached per process, with the
// paper-faithful energy model. Trace lengths scale with DDTR_BENCH_SCALE
// (default 1.0 — the
// simulation *counts* of Table 1 are identical at every scale).
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/ddtr.h"

namespace ddtr::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("DDTR_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline core::CaseStudyOptions bench_options() {
  return core::CaseStudyOptions{}.scaled(bench_scale());
}

// Runs (and memoizes) the full methodology on every registered workload,
// serially and in registration order (the four built-ins: the paper's
// Table 1 order).
inline const std::vector<core::ExplorationReport>& all_reports() {
  static const std::vector<core::ExplorationReport> reports = [] {
    // t0 covers study construction too (trace generation through the
    // shared net::TraceStore).
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<core::CaseStudy> studies;
    for (const std::string& name : api::registry().names()) {
      studies.push_back(api::registry().make_study(name, bench_options()));
    }
    std::cerr << "[ddtr] exploring " << studies.size() << " workloads:";
    for (const core::CaseStudy& study : studies) {
      std::cerr << ' ' << study.name << '(' << study.scenarios.size() << ')';
    }
    std::cerr << "...\n";

    std::vector<core::ExplorationReport> out;
    for (core::CaseStudy& study : studies) {
      out.push_back(api::Exploration(std::move(study)).run());
    }
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    std::cerr << "[ddtr] total exploration time: " << elapsed << " s (scale "
              << bench_scale() << ")\n";
    return out;
  }();
  return reports;
}

}  // namespace ddtr::bench
