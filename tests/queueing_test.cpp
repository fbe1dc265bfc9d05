// Unit tests for M/M/1 closed forms, the G/M/1 sigma solver, and the generic
// queue simulation kernel.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/roots.hpp"
#include "queueing/gm1.hpp"
#include "queueing/mm1.hpp"
#include "queueing/queue_sim.hpp"
#include "sim/distributions.hpp"
#include "traffic/poisson.hpp"

namespace {

using hap::queueing::Mm1;
using hap::queueing::QueueSimOptions;
using hap::queueing::simulate_queue;
using hap::queueing::solve_gm1;

TEST(Mm1Test, ClosedForms) {
    Mm1 q(2.0, 5.0);
    EXPECT_DOUBLE_EQ(q.utilization(), 0.4);
    EXPECT_TRUE(q.stable());
    EXPECT_NEAR(q.mean_delay(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(q.mean_wait(), 0.4 / 3.0, 1e-12);
    EXPECT_NEAR(q.mean_number(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(q.p_n(0), 0.6, 1e-12);
    EXPECT_NEAR(q.p_n(2), 0.6 * 0.16, 1e-12);
    EXPECT_NEAR(q.mean_busy_period(), 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(q.mean_idle_period(), 0.5, 1e-12);
    // Little's law: N = lambda T.
    EXPECT_NEAR(q.mean_number(), 2.0 * q.mean_delay(), 1e-12);
}

TEST(Gm1, PoissonInputReducesToMm1) {
    // A*(s) = lambda / (lambda + s) => sigma = rho.
    const double lambda = 3.0, mu = 10.0;
    const auto transform = [=](double s) { return lambda / (lambda + s); };
    const auto res = solve_gm1(transform, mu, lambda);
    ASSERT_TRUE(res.stable);
    EXPECT_NEAR(res.sigma, 0.3, 1e-9);
    EXPECT_NEAR(res.mean_delay, Mm1(lambda, mu).mean_delay(), 1e-9);
    EXPECT_NEAR(res.mean_number, Mm1(lambda, mu).mean_number(), 1e-8);
    // The paper's sigma-algorithm (solve_gm1's fallback) on the same map
    // finds the same root.
    const auto paper = hap::numerics::damped_fixed_point(
        [&](double sigma) { return transform(mu * (1.0 - sigma)); }, 0.5);
    ASSERT_TRUE(paper.has_value());
    EXPECT_NEAR(*paper, res.sigma, 1e-9);
}

TEST(Gm1, DeterministicArrivalsKnownSigma) {
    // D/M/1: A*(s) = e^{-s/lambda}; sigma solves sigma = e^{-(mu/lambda)(1-sigma)}.
    const double lambda = 4.0, mu = 5.0;
    const auto transform = [=](double s) { return std::exp(-s / lambda); };
    const auto res = solve_gm1(transform, mu, lambda);
    ASSERT_TRUE(res.stable);
    EXPECT_NEAR(res.sigma, std::exp(-(mu / lambda) * (1.0 - res.sigma)), 1e-9);
    // D/M/1 delays are SHORTER than M/M/1 at the same load.
    EXPECT_LT(res.mean_delay, Mm1(lambda, mu).mean_delay());
}

TEST(Gm1, ErlangArrivalsBetweenDAndM) {
    // E2/M/1: A*(s) = (2l/(2l+s))^2 with l = lambda.
    const double lambda = 4.0, mu = 5.0;
    const auto e2 = [=](double s) {
        const double f = 2.0 * lambda / (2.0 * lambda + s);
        return f * f;
    };
    const auto d = solve_gm1([=](double s) { return std::exp(-s / lambda); }, mu, lambda);
    const auto m = solve_gm1([=](double s) { return lambda / (lambda + s); }, mu, lambda);
    const auto e = solve_gm1(e2, mu, lambda);
    EXPECT_LT(d.mean_delay, e.mean_delay);
    EXPECT_LT(e.mean_delay, m.mean_delay);
}

TEST(Gm1, WaitCdfAnchors) {
    EXPECT_NEAR(hap::queueing::gm1_wait_cdf(0.5, 10.0, 0.0), 0.5, 1e-12);
    EXPECT_NEAR(hap::queueing::gm1_wait_cdf(0.5, 10.0, 1e9), 1.0, 1e-12);
}

TEST(Gm1, UnstableReported) {
    const auto res = solve_gm1([](double s) { return 5.0 / (5.0 + s); }, 2.0, 5.0);
    EXPECT_FALSE(res.stable);
}

TEST(QueueSim, Mm1MatchesTheory) {
    hap::traffic::PoissonSource arrivals(2.0);
    hap::sim::Exponential service(5.0);
    hap::sim::RandomStream rng(13);
    QueueSimOptions opts;
    opts.horizon = 2e5;
    opts.warmup = 1e3;
    const auto res = simulate_queue(arrivals, service, rng, opts);
    const Mm1 ref(2.0, 5.0);
    EXPECT_NEAR(res.delay.mean(), ref.mean_delay(), 0.02 * ref.mean_delay());
    EXPECT_NEAR(res.wait.mean(), ref.mean_wait(), 0.05 * ref.mean_wait());
    EXPECT_NEAR(res.number.mean(), ref.mean_number(), 0.05 * ref.mean_number());
    EXPECT_NEAR(res.utilization, 0.4, 0.01);
    EXPECT_NEAR(res.busy.busy_lengths().mean(), ref.mean_busy_period(),
                0.05 * ref.mean_busy_period());
    EXPECT_NEAR(res.busy.idle_lengths().mean(), ref.mean_idle_period(),
                0.05 * ref.mean_idle_period());
}

TEST(QueueSim, LittlesLawHoldsInSample) {
    hap::traffic::PoissonSource arrivals(3.0);
    hap::sim::Exponential service(4.0);
    hap::sim::RandomStream rng(17);
    QueueSimOptions opts;
    opts.horizon = 1e5;
    const auto res = simulate_queue(arrivals, service, rng, opts);
    const double lambda_hat =
        static_cast<double>(res.arrivals) / (opts.horizon - opts.warmup);
    EXPECT_NEAR(res.number.mean(), lambda_hat * res.delay.mean(),
                0.03 * res.number.mean());
}

TEST(QueueSim, MD1WaitBelowMM1) {
    hap::traffic::PoissonSource a1(3.0), a2(3.0);
    hap::sim::Exponential exp_service(4.0);
    hap::sim::Deterministic det_service(0.25);
    hap::sim::RandomStream rng(19);
    QueueSimOptions opts;
    opts.horizon = 1e5;
    const auto exp_res = simulate_queue(a1, exp_service, rng, opts);
    const auto det_res = simulate_queue(a2, det_service, rng, opts);
    // Same load; M/D/1 mean wait is half of M/M/1's.
    EXPECT_NEAR(det_res.wait.mean(), 0.5 * exp_res.wait.mean(),
                0.15 * exp_res.wait.mean());
}

TEST(QueueSim, RecordsOptionalSeries) {
    hap::traffic::PoissonSource arrivals(1.0);
    hap::sim::Exponential service(3.0);
    hap::sim::RandomStream rng(23);
    QueueSimOptions opts;
    opts.horizon = 1000.0;
    opts.record_delays = true;
    opts.record_arrival_times = true;
    int change_events = 0;
    opts.on_change = [&](double, std::uint64_t) { ++change_events; };
    const auto res = simulate_queue(arrivals, service, rng, opts);
    EXPECT_EQ(res.delays.size(), res.departures);
    EXPECT_EQ(res.arrival_times.size(), res.arrivals);
    EXPECT_GT(change_events, 0);
    for (std::size_t i = 1; i < res.arrival_times.size(); ++i)
        ASSERT_GE(res.arrival_times[i], res.arrival_times[i - 1]);
}

}  // namespace
