// Unit tests for the CTMC steady-state solvers and the QBD (matrix-
// geometric) MMPP/M/1 solver.
#include <gtest/gtest.h>

#include <cmath>

#include "markov/ctmc.hpp"
#include "markov/qbd.hpp"
#include "numerics/matrix.hpp"
#include "queueing/mm1.hpp"

namespace {

using hap::markov::Ctmc;
using hap::markov::solve_mmpp_m1;
using hap::markov::solve_steady_state;
using hap::markov::solve_steady_state_power;
using hap::numerics::Matrix;

Ctmc two_state_chain(double a, double b) {
    Ctmc c(2);
    c.add_transition(0, 1, a);
    c.add_transition(1, 0, b);
    c.finalize();
    return c;
}

TEST(Ctmc, RejectsBadTransitions) {
    Ctmc c(3);
    EXPECT_THROW(c.add_transition(0, 0, 1.0), std::invalid_argument);
    EXPECT_THROW(c.add_transition(0, 3, 1.0), std::out_of_range);
    EXPECT_THROW(c.add_transition(0, 1, -1.0), std::invalid_argument);
    c.add_transition(0, 1, 1.0);
    c.finalize();
    EXPECT_THROW(c.add_transition(1, 2, 1.0), std::logic_error);
}

TEST(SteadyState, TwoStateClosedForm) {
    const Ctmc c = two_state_chain(2.0, 6.0);
    const auto res = solve_steady_state(c);
    ASSERT_TRUE(res.converged);
    EXPECT_NEAR(res.pi[0], 0.75, 1e-9);
    EXPECT_NEAR(res.pi[1], 0.25, 1e-9);
}

TEST(SteadyState, PowerIterationAgrees) {
    const Ctmc c = two_state_chain(1.3, 0.4);
    const auto gs = solve_steady_state(c);
    const auto pw = solve_steady_state_power(c);
    ASSERT_TRUE(gs.converged);
    ASSERT_TRUE(pw.converged);
    EXPECT_NEAR(gs.pi[0], pw.pi[0], 1e-8);
    EXPECT_NEAR(gs.pi[1], pw.pi[1], 1e-8);
}

TEST(SteadyState, Mm1TruncatedBirthDeath) {
    // Birth-death with lambda=1, mu=2 truncated at 60: pi_n ~ (1/2)^n.
    constexpr std::size_t n = 61;
    Ctmc c(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        c.add_transition(i, i + 1, 1.0);
        c.add_transition(i + 1, i, 2.0);
    }
    c.finalize();
    const auto res = solve_steady_state(c);
    ASSERT_TRUE(res.converged);
    EXPECT_NEAR(res.pi[0], 0.5, 1e-8);
    EXPECT_NEAR(res.pi[1] / res.pi[0], 0.5, 1e-8);
    EXPECT_NEAR(res.pi[5] / res.pi[4], 0.5, 1e-8);
}

TEST(SteadyState, MMInfTruncatedIsPoisson) {
    // M/M/inf with lambda=3, mu=1 truncated at 30: pi ~ Poisson(3).
    constexpr std::size_t n = 31;
    Ctmc c(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        c.add_transition(i, i + 1, 3.0);
        c.add_transition(i + 1, i, static_cast<double>(i + 1));
    }
    c.finalize();
    const auto res = solve_steady_state(c);
    ASSERT_TRUE(res.converged);
    EXPECT_NEAR(res.pi[3] / res.pi[0], 27.0 / 6.0, 1e-7);  // 3^3/3!
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += res.pi[i] * static_cast<double>(i);
    EXPECT_NEAR(mean, 3.0, 1e-7);
}

TEST(Qbd, Mm1SpecialCase) {
    // One phase: MMPP/M/1 degenerates to M/M/1.
    Matrix q{{0.0}};
    const auto res = solve_mmpp_m1(q, {2.0}, 5.0);
    ASSERT_TRUE(res.stable);
    const hap::queueing::Mm1 ref(2.0, 5.0);
    EXPECT_NEAR(res.mean_level, ref.mean_number(), 1e-8);
    EXPECT_NEAR(res.mean_delay, ref.mean_delay(), 1e-8);
    EXPECT_NEAR(res.utilization, 0.4, 1e-8);
    EXPECT_NEAR(res.mean_rate, 2.0, 1e-8);
}

TEST(Qbd, DetectsInstability) {
    Matrix q{{0.0}};
    const auto res = solve_mmpp_m1(q, {5.0}, 2.0);
    EXPECT_FALSE(res.stable);
}

TEST(Qbd, TwoPhaseHeavierThanMm1) {
    // Same mean rate as M/M/1 but modulated: mean queue must be larger.
    // Phases: off (rate 0) and on (rate 8), pi = (0.75, 0.25), mean rate 2.
    Matrix q{{-1.0, 1.0}, {3.0, -3.0}};
    const auto res = solve_mmpp_m1(q, {0.0, 8.0}, 5.0);
    ASSERT_TRUE(res.stable);
    EXPECT_NEAR(res.mean_rate, 2.0, 1e-8);
    const hap::queueing::Mm1 ref(2.0, 5.0);
    EXPECT_GT(res.mean_level, ref.mean_number());
    EXPECT_GT(res.mean_delay, ref.mean_delay());
}

TEST(Qbd, UtilizationEqualsRho) {
    // Work conservation: P(busy) = lambda-bar / mu regardless of modulation.
    Matrix q{{-0.3, 0.3}, {0.7, -0.7}};
    const auto res = solve_mmpp_m1(q, {1.0, 6.0}, 9.0);
    ASSERT_TRUE(res.stable);
    EXPECT_NEAR(res.utilization, res.mean_rate / 9.0, 1e-8);
}

// Near-critical birth-death chain: slow geometric convergence, the regime
// extrapolation is for.
Ctmc slow_birth_death(std::size_t n, double lambda, double mu) {
    Ctmc c(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        c.add_transition(i, i + 1, lambda);
        c.add_transition(i + 1, i, mu);
    }
    c.finalize();
    return c;
}

TEST(SteadyState, AccelerationPreservesFixedPoint) {
    // Extrapolation is always armed; it may only change the path to the
    // fixed point, never the fixed point. Both solvers must land on the
    // closed-form birth-death law pi_i = (1 - rho) rho^i / (1 - rho^n).
    constexpr std::size_t n = 120;
    const double rho = 0.9;
    const Ctmc c = slow_birth_death(n, rho, 1.0);
    const double norm = (1.0 - rho) / (1.0 - std::pow(rho, static_cast<double>(n)));

    for (auto* solver : {&solve_steady_state, &solve_steady_state_power}) {
        const auto res = (*solver)(c, {});
        ASSERT_TRUE(res.converged);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(res.pi[i], norm * std::pow(rho, static_cast<double>(i)), 1e-9);
    }
}

TEST(SteadyState, AccelerationFiresOnGeometricConvergence) {
    // Smooth single-mode convergence is exactly the regime the Lyusternik
    // guard admits; the slow chain must see at least one accepted step.
    const Ctmc c = slow_birth_death(120, 0.9, 1.0);
    const auto res = solve_steady_state_power(c);
    ASSERT_TRUE(res.converged);
    EXPECT_GT(res.accelerations, 0u);
}

TEST(Ctmc, InEdgesSortedBySource) {
    // finalize() sorts each state's in-edges by source for cache locality;
    // insertion order must not leak through.
    Ctmc c(4);
    c.add_transition(3, 0, 1.0);
    c.add_transition(1, 0, 2.0);
    c.add_transition(2, 0, 3.0);
    c.add_transition(0, 1, 1.0);
    c.add_transition(0, 2, 1.0);
    c.add_transition(0, 3, 1.0);
    c.finalize();
    const auto in = c.in_edges(0);
    ASSERT_EQ(in.count, 3u);
    EXPECT_EQ(in.from[0], 1u);
    EXPECT_EQ(in.from[1], 2u);
    EXPECT_EQ(in.from[2], 3u);
    EXPECT_DOUBLE_EQ(in.rate[0], 2.0);
    EXPECT_DOUBLE_EQ(in.rate[1], 3.0);
    EXPECT_DOUBLE_EQ(in.rate[2], 1.0);
}

}  // namespace
