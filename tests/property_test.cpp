// Parameterized property tests: invariants that must hold across whole
// families of HAP parameterizations.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>

#include "core/hap.hpp"
#include "numerics/quadrature.hpp"
#include "queueing/mm1.hpp"

namespace {

using namespace hap::core;

// ---------------------------------------------------------------------------
// Solution 2 closed-form invariants over a parameter grid.
// ---------------------------------------------------------------------------

struct GridParam {
    double a;        // mean users
    double b;        // apps per user per type
    std::size_t l;   // app types
    std::size_t m;   // message types
    double lambda2;  // per-message-type rate
};

std::string describe(const GridParam& g) {
    std::ostringstream os;
    os << "grid point a=" << g.a << " b=" << g.b << " l=" << g.l << " m=" << g.m
       << " lambda2=" << g.lambda2;
    return os.str();
}

class Solution2Property : public testing::TestWithParam<GridParam> {
protected:
    // Every failure message names its grid point.
    const testing::ScopedTrace trace_{__FILE__, __LINE__, describe(GetParam())};

    HapParams make() const {
        const GridParam g = GetParam();
        const double mu = 0.001;
        const double mu1 = 0.01;
        return HapParams::homogeneous(g.a * mu, mu, g.b * mu1, mu1, g.l,
                                      g.lambda2, g.m, 50.0);
    }
};

TEST_P(Solution2Property, DensityIsAProbabilityDensity) {
    const Solution2 sol(make());
    // Nonnegative and integrating to one.
    for (double t = 0.0; t < 2.0; t += 0.01)
        ASSERT_GE(sol.interarrival_density(t), -1e-12) << "t=" << t;
    const double total = hap::numerics::integrate_to_infinity(
        [&](double t) { return sol.interarrival_density(t); });
    EXPECT_NEAR(total, 1.0, 1e-5);
}

TEST_P(Solution2Property, CdfMonotoneWithCorrectLimits) {
    const Solution2 sol(make());
    EXPECT_NEAR(sol.interarrival_cdf(0.0), 0.0, 1e-12);
    double prev = -1e-12;
    for (double t = 0.0; t < 5.0; t += 0.05) {
        const double c = sol.interarrival_cdf(t);
        ASSERT_GE(c, prev - 1e-12);
        ASSERT_LE(c, 1.0 + 1e-12);
        prev = c;
    }
}

TEST_P(Solution2Property, TransformBoundsAndMonotonicity) {
    const Solution2 sol(make());
    // A*(s) decreasing in s, A*(0) = 1, bounded by 1.
    double prev = sol.laplace(1e-9);
    EXPECT_NEAR(prev, 1.0, 1e-6);
    for (double s : {0.1, 0.5, 2.0, 8.0, 32.0}) {
        const double v = sol.laplace(s);
        ASSERT_LT(v, prev + 1e-12);
        ASSERT_GT(v, 0.0);
        prev = v;
    }
}

TEST_P(Solution2Property, MeanRateMatchesEq4) {
    const GridParam g = GetParam();
    const Solution2 sol(make());
    const double expected =
        g.a * g.b * static_cast<double>(g.l) * static_cast<double>(g.m) * g.lambda2;
    EXPECT_NEAR(sol.mean_rate(), expected, 1e-9 * expected);
}

TEST_P(Solution2Property, DelayAboveMm1AtEqualLoad) {
    const Solution2 sol(make());
    const double rate = sol.mean_rate();
    const double mu = 50.0;
    if (rate >= 0.9 * mu) GTEST_SKIP() << "load too close to saturation";
    const auto q = sol.solve_queue(mu);
    ASSERT_TRUE(q.stable);
    EXPECT_GE(q.mean_delay, hap::queueing::Mm1(rate, mu).mean_delay() * 0.999);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Solution2Property,
    testing::Values(GridParam{2.0, 1.0, 1, 1, 2.0}, GridParam{5.5, 1.0, 5, 3, 0.1},
                    GridParam{1.0, 0.5, 2, 2, 1.0}, GridParam{10.0, 2.0, 3, 1, 0.2},
                    GridParam{0.5, 4.0, 1, 5, 0.5}, GridParam{8.0, 0.25, 4, 2, 0.8}));

// ---------------------------------------------------------------------------
// Load monotonicity of the G/M/1 reduction.
// ---------------------------------------------------------------------------

class LoadMonotone : public testing::TestWithParam<double> {};

TEST_P(LoadMonotone, DelayIncreasesWithMessageRate) {
    const double scale = GetParam();
    const HapParams base = HapParams::paper_baseline(20.0);
    HapParams scaled = base;
    for (auto& app : scaled.apps)
        for (auto& msg : app.messages) msg.arrival_rate *= scale;
    const auto q_base = Solution2(base).solve_queue(20.0);
    const auto q_scaled = Solution2(scaled).solve_queue(20.0);
    ASSERT_TRUE(q_scaled.stable);
    if (scale > 1.0) {
        EXPECT_GT(q_scaled.mean_delay, q_base.mean_delay);
        EXPECT_GT(q_scaled.sigma, q_base.sigma);
    } else if (scale < 1.0) {
        EXPECT_LT(q_scaled.mean_delay, q_base.mean_delay);
    }
}

INSTANTIATE_TEST_SUITE_P(Scales, LoadMonotone,
                         testing::Values(0.25, 0.5, 0.8, 1.2, 1.5, 2.0));

// ---------------------------------------------------------------------------
// Admission bounds: tightening never increases workload or delay.
// ---------------------------------------------------------------------------

class BoundsMonotone
    : public testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BoundsMonotone, TighterBoundsNeverIncreaseRateOrDelay) {
    const auto [users, apps] = GetParam();
    HapParams loose = HapParams::paper_baseline(20.0);
    HapParams tight = loose;
    tight.max_users = users;
    tight.max_apps = apps;
    const Solution2 sl(loose), st(tight);
    EXPECT_LE(st.mean_rate(), sl.mean_rate() + 1e-9);
    const auto ql = sl.solve_queue(20.0);
    const auto qt = st.solve_queue(20.0);
    EXPECT_LE(qt.mean_delay, ql.mean_delay + 1e-9);
    EXPECT_LE(qt.sigma, ql.sigma + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BoundGrid, BoundsMonotone,
                         testing::Values(std::tuple<std::size_t, std::size_t>{3, 15},
                                         std::tuple<std::size_t, std::size_t>{6, 30},
                                         std::tuple<std::size_t, std::size_t>{12, 60},
                                         std::tuple<std::size_t, std::size_t>{24, 120},
                                         std::tuple<std::size_t, std::size_t>{60, 300}));

// ---------------------------------------------------------------------------
// Merge/split invariance (paper Fig. 8): same leaves => same lambda-bar, and
// burstiness ordering (c) > (b) > (a) style: concentrating leaves in fewer
// application types raises the delay.
// ---------------------------------------------------------------------------

class MergeSplit : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MergeSplit, SameLeavesSameRate) {
    const auto [l, m] = GetParam();
    const HapParams p = HapParams::homogeneous(
        0.0055, 0.001, 0.01, 0.01, static_cast<std::size_t>(l), 0.1,
        static_cast<std::size_t>(m), 20.0);
    // leaves = l * m fixed at 12 in this suite.
    EXPECT_NEAR(Solution2(p).mean_rate(),
                5.5 * 1.0 * 12.0 * 0.1, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Twelve, MergeSplit,
                         testing::Values(std::tuple<int, int>{1, 12},
                                         std::tuple<int, int>{2, 6},
                                         std::tuple<int, int>{3, 4},
                                         std::tuple<int, int>{4, 3},
                                         std::tuple<int, int>{6, 2},
                                         std::tuple<int, int>{12, 1}));

TEST(MergeSplitOrdering, FewerTypesWithMoreMessagesAreBurstier) {
    // Paper Fig. 8 intuition: (c) one type with all leaves is burstier than
    // (a) many types with few leaves, at identical lambda-bar.
    const HapParams spread = HapParams::homogeneous(0.0055, 0.001, 0.01, 0.01, 4, 0.1, 1, 20.0);
    const HapParams merged = HapParams::homogeneous(0.0055, 0.001, 0.01, 0.01, 1, 0.1, 4, 20.0);
    ASSERT_NEAR(Solution2(spread).mean_rate(), Solution2(merged).mean_rate(), 1e-9);
    const auto qs = Solution2(spread).solve_queue(20.0);
    const auto qm = Solution2(merged).solve_queue(20.0);
    EXPECT_GT(qm.mean_delay, qs.mean_delay);
}

// ---------------------------------------------------------------------------
// Arrival/departure same-level scaling (Section 5): scaling both rates at one
// level keeps lambda-bar; faster churn (shorter but more frequent sessions)
// slightly REDUCES delay.
// ---------------------------------------------------------------------------

class ChurnScaling : public testing::TestWithParam<double> {};

TEST_P(ChurnScaling, Solution2IsChurnInvariant) {
    // The rate-weighted mixture depends on the modulating chain only through
    // its STATIONARY law, which for the M/M/inf lattice is a function of the
    // ratios a = lambda/mu and b = lambda'/mu' alone — scaling arrival and
    // departure rates together at one level leaves Solution 2 unchanged.
    // (The real queue IS churn-sensitive; see the exact-solver test below.)
    const double f = GetParam();
    const HapParams base = HapParams::paper_baseline(20.0);
    HapParams churned = base;
    churned.user_arrival_rate *= f;
    churned.user_departure_rate *= f;
    const Solution2 sb(base), sc(churned);
    ASSERT_NEAR(sb.mean_rate(), sc.mean_rate(), 1e-9);
    EXPECT_NEAR(sc.solve_queue(20.0).mean_delay, sb.solve_queue(20.0).mean_delay,
                1e-6);
}

INSTANTIATE_TEST_SUITE_P(Factors, ChurnScaling, testing::Values(0.5, 0.9, 1.1, 2.0));

TEST(ChurnScalingExact, FasterChurnLowersTrueDelay) {
    // Section 5: sources that "come frequently but go quickly generate
    // shorter bursts" than slow-churn sources of equal lambda-bar. The exact
    // QBD solver sees the effect that Solution 2 cannot.
    const HapParams base = HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 10.0);
    HapParams slow = base, fast = base;
    slow.apps[0].arrival_rate *= 0.25;
    slow.apps[0].departure_rate *= 0.25;
    fast.apps[0].arrival_rate *= 4.0;
    fast.apps[0].departure_rate *= 4.0;
    const double d_slow = solve_solution3(slow).qbd.mean_delay;
    const double d_base = solve_solution3(base).qbd.mean_delay;
    const double d_fast = solve_solution3(fast).qbd.mean_delay;
    EXPECT_GT(d_slow, d_base);
    EXPECT_GT(d_base, d_fast);
}

}  // namespace
