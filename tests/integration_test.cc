// End-to-end integration: the full three-step methodology on scaled-down
// versions of all four paper case studies. Checks the paper's qualitative
// claims: big simulation-count reduction, small Pareto-optimal sets, and
// the refined DDTs beating the original all-SLL NetBench implementation.
#include <gtest/gtest.h>

#include <cstdio>

#include "api/ddtr.h"
#include "support/fnv_hash.h"

namespace ddtr::core {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  // Every registered workload (registration order = Table 1 order),
  // driven through the public registry + exploration-session API.
  static const std::vector<ExplorationReport>& reports() {
    static const std::vector<ExplorationReport>* cached = [] {
      auto* out = new std::vector<ExplorationReport>;
      for (const std::string& name : api::registry().names()) {
        api::Exploration session(api::registry().make_study(
            name, CaseStudyOptions{}.scaled(0.08)));
        out->push_back(session.run());
      }
      return out;
    }();
    return *cached;
  }
};

TEST_F(IntegrationTest, ExhaustiveCountsMatchPaperTable1) {
  ASSERT_EQ(reports().size(), 4u);
  EXPECT_EQ(reports()[0].app_name, "Route");
  // Widened lattice (accounting v2): 11 unkeyed kinds per positional slot,
  // 12 (including HASH) per keyed slot.
  EXPECT_EQ(reports()[0].exhaustive_simulations, 1694u);  // 11^2 x 14
  EXPECT_EQ(reports()[1].app_name, "URL");
  EXPECT_EQ(reports()[1].exhaustive_simulations, 605u);  // 11^2 x 5
  EXPECT_EQ(reports()[2].app_name, "IPchains");
  EXPECT_EQ(reports()[2].exhaustive_simulations, 2772u);  // 11x12 x 21
  EXPECT_EQ(reports()[3].app_name, "DRR");
  EXPECT_EQ(reports()[3].exhaustive_simulations, 660u);  // 12x11 x 5
}

TEST_F(IntegrationTest, ReductionIsLarge) {
  // Paper: average ~80% reduction. Require at least 50% per app.
  for (const auto& report : reports()) {
    EXPECT_LT(report.reduced_simulations(),
              report.exhaustive_simulations / 2)
        << report.app_name;
  }
}

TEST_F(IntegrationTest, ParetoOptimalSetsAreSmall) {
  // Paper Table 1: 7 / 4 / 6 / 3 Pareto-optimal combinations.
  for (const auto& report : reports()) {
    EXPECT_GE(report.pareto_optimal.size(), 1u) << report.app_name;
    EXPECT_LE(report.pareto_optimal.size(), 15u) << report.app_name;
  }
}

TEST_F(IntegrationTest, RefinedBeatsOriginalSllImplementation) {
  // The original NetBench DDTs "were implemented as single linked lists";
  // the paper reports ~80% energy and ~20% time gains for URL. Require the
  // best Pareto point to beat SLL+SLL on energy for every app.
  for (const auto& report : reports()) {
    const SimulationRecord* sll = nullptr;
    for (const auto& r : report.step1_records) {
      if (r.combo.label() == "SLL+SLL") sll = &r;
    }
    ASSERT_NE(sll, nullptr) << report.app_name;
    double best_energy = sll->metrics.energy_mj;
    for (const auto& r : report.step1_records) {
      best_energy = std::min(best_energy, r.metrics.energy_mj);
    }
    EXPECT_LT(best_energy, sll->metrics.energy_mj * 0.8) << report.app_name;
  }
}

TEST_F(IntegrationTest, ParetoSetOffersRealTradeoffs) {
  // Among the final Pareto points at least one metric must vary: that is
  // what "trade-off" means. (Table 2 quantifies the spans per app.)
  for (const auto& report : reports()) {
    if (report.pareto_optimal.size() < 2) continue;
    const auto records = report.pareto_records();
    std::vector<energy::Metrics> points;
    for (const auto& r : records) points.push_back(r.metrics);
    double max_span = 0.0;
    for (std::size_t m = 0; m < energy::kMetricCount; ++m) {
      max_span = std::max(max_span, tradeoff_span(points, m));
    }
    EXPECT_GT(max_span, 0.05) << report.app_name;
  }
}

TEST_F(IntegrationTest, OptimalCombinationVariesAcrossNetworks) {
  // Paper §3.2: "for different network configurations, the optimal DDTs
  // vary greatly for certain metrics". Check that for some metric the
  // per-scenario winner differs between scenarios in at least one case
  // study.
  std::size_t studies_with_variation = 0;
  for (const auto& report : reports()) {
    bool varies = false;
    for (std::size_t metric = 0; metric < energy::kMetricCount; ++metric) {
      std::set<std::string> winners;
      std::map<std::string, std::pair<double, std::string>> best;
      for (const auto& r : report.step2_records) {
        const auto key = r.scenario_label();
        const double v = r.metrics.as_array()[metric];
        auto it = best.find(key);
        if (it == best.end() || v < it->second.first) {
          best[key] = {v, r.combo.label()};
        }
      }
      for (const auto& [scenario, winner] : best) {
        winners.insert(winner.second);
      }
      varies |= winners.size() > 1;
    }
    if (varies) ++studies_with_variation;
  }
  EXPECT_GE(studies_with_variation, 1u);
}

TEST_F(IntegrationTest, Step2RecordsCoverAllScenarios) {
  const std::vector<std::size_t> expected_scenarios = {14, 5, 21, 5};
  for (std::size_t i = 0; i < reports().size(); ++i) {
    std::set<std::string> labels;
    for (const auto& r : reports()[i].step2_records) {
      labels.insert(r.scenario_label());
    }
    EXPECT_EQ(labels.size(), expected_scenarios[i])
        << reports()[i].app_name;
  }
}

// Pinned reports: the FNV-1a digest and byte length of each built-in
// workload's serialized_records() at scale 0.1, one lane. A change meant
// to make simulations cheaper (DDT layouts, the engine, the cache) must
// leave these bytes alone. The constants were taken from the code before
// the DDT key cache; never regenerate them to make a failing change pass.
TEST(ReportGolden, SerializedRecordsMatchPinnedDigests) {
  struct Golden {
    const char* app;
    const char* digest;
    std::size_t bytes;
  };
  const Golden goldens[] = {
      {"route", "ddceb5f96cfbd012", 25940},
      {"url", "9f1a30b4e75a05a6", 17492},
      {"ipchains", "8a06dc26216b29d7", 41010},
      {"drr", "8b64881a4f43d7d8", 21474},
  };
  for (const Golden& golden : goldens) {
    api::Exploration session(api::registry().make_study(
        golden.app, CaseStudyOptions{}.scaled(0.1)));
    session.jobs(1);
    const std::string records = session.run().serialized_records();
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      support::Fnv1a64()
                          .bytes(records.data(), records.size())
                          .digest()));
    EXPECT_EQ(std::string(digest), golden.digest) << golden.app;
    EXPECT_EQ(records.size(), golden.bytes) << golden.app;
  }
}

}  // namespace
}  // namespace ddtr::core
