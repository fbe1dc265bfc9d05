// Tests for the admission-control / bandwidth-allocation toolkit (Section 6).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/admission.hpp"
#include "core/solution2.hpp"

namespace {

using namespace hap::core;

TEST(Admission, SweepMonotoneInBounds) {
    const HapParams base = HapParams::paper_baseline(20.0);
    const std::vector<std::pair<std::size_t, std::size_t>> bounds{
        {0, 0}, {60, 300}, {12, 60}, {6, 30}, {3, 15}};
    std::vector<AdmissionOutcome> points;
    for (const auto& [users, apps] : bounds) {
        AdmissionQuery q;
        q.max_users = users;
        q.max_apps = apps;
        q.service_rate = 20.0;
        points.push_back(evaluate_admission(base, q));
        ASSERT_TRUE(points.back().stable);
    }
    // Generous bounds ~ unbounded; tightening reduces rate and delay.
    EXPECT_NEAR(points[1].mean_rate, points[0].mean_rate, 1e-6);
    EXPECT_NEAR(points[1].mean_delay, points[0].mean_delay, 1e-6);
    for (std::size_t i = 2; i < points.size(); ++i) {
        EXPECT_LT(points[i].mean_rate, points[i - 1].mean_rate);
        EXPECT_LT(points[i].mean_delay, points[i - 1].mean_delay);
    }
}

TEST(Admission, RequiredBandwidthMeetsBudget) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const double budget = 0.08;
    const double mu = required_bandwidth(p, budget);
    const Solution2 sol(p);
    EXPECT_LE(sol.solve_queue(mu).mean_delay, budget * 1.001);
    // Minimality: 5% less bandwidth must violate the budget.
    EXPECT_GT(sol.solve_queue(mu * 0.95).mean_delay, budget);
    EXPECT_GT(mu, sol.mean_rate());  // stability requires mu > lambda-bar
}

TEST(Admission, RequiredBandwidthMonotoneInBudget) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const double tight = required_bandwidth(p, 0.06);
    const double loose = required_bandwidth(p, 0.2);
    EXPECT_GT(tight, loose);
}

TEST(Admission, AdmissibleWorkloadMeetsBudget) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const double budget = 0.11;
    const double admissible = admissible_workload(p, 20.0, budget);
    EXPECT_GT(admissible, 0.0);
    EXPECT_LT(admissible, 20.0);  // must stay below the bandwidth
    // The baseline itself (8.25 at delay ~0.1) fits within a 0.11 budget,
    // so the admissible workload is at least that.
    EXPECT_GE(admissible, 8.25 * 0.98);
}

TEST(Admission, AdmissibleWorkloadGrowsWithBudget) {
    const HapParams p = HapParams::paper_baseline(20.0);
    const double small_budget = admissible_workload(p, 20.0, 0.08);
    const double large_budget = admissible_workload(p, 20.0, 0.5);
    EXPECT_GT(large_budget, small_budget);
}

TEST(Admission, InfeasibleBudgetThrows) {
    const HapParams p = HapParams::paper_baseline(20.0);
    // Budget below the bare service time 1/mu is unreachable.
    EXPECT_THROW(admissible_workload(p, 20.0, 0.01), std::invalid_argument);
    EXPECT_THROW(required_bandwidth(p, 0.0), std::invalid_argument);
}

TEST(Admission, DecisionTableRowsFeasibleAndMonotone) {
    const HapParams base = HapParams::paper_baseline(20.0);
    const auto rows = admission_decision_table(base, 20.0, 0.1, 8, 5);
    ASSERT_EQ(rows.size(), 8u);
    const Solution2 unbounded(base);
    for (const auto& r : rows) {
        if (!r.feasible) continue;
        EXPECT_LE(r.mean_delay, 0.1 + 1e-9);
        EXPECT_GT(r.max_apps, 0u);
        // Any feasible row admits no more than the unbounded workload.
        EXPECT_LE(r.mean_rate, unbounded.mean_rate() + 1e-9);
    }
    // Small user bounds are easily feasible at this budget.
    EXPECT_TRUE(rows.front().feasible);
}

}  // namespace
