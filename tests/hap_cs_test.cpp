// Tests for the HAP-CS client-server model (paper Section 2.2).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/hap_chain.hpp"
#include "core/hap_cs.hpp"

namespace {

using namespace hap::core;

HapCsParams rlogin_like(double ps, double pr) {
    // Light HAP feeding a command/response exchange.
    HapParams base = HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 1.0, 1, 1.0);
    CsMessageBehavior b;
    b.request_service_rate = 40.0;
    b.response_service_rate = 40.0;
    b.p_response = ps;
    b.p_next_request = pr;
    return HapCsParams::uniform(std::move(base), b);
}

TEST(HapCs, ValidatesShapesAndProbabilities) {
    HapCsParams p = rlogin_like(0.9, 0.5);
    EXPECT_NO_THROW(p.validate());
    p.behavior[0][0].p_response = 1.2;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p.behavior[0][0].p_response = 1.0;
    p.behavior[0][0].p_next_request = 1.0;  // ps*pr = 1: endless chains
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p.behavior[0][0].p_next_request = 0.5;
    p.behavior.clear();
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(HapCs, ChainLengthMatchesGeometricMean) {
    // Each request yields a response w.p. ps, each response a new request
    // w.p. pr: requests per transaction ~ geometric with mean 1/(1-ps*pr).
    const HapCsParams p = rlogin_like(0.8, 0.75);  // mean chain = 1/(1-0.6) = 2.5
    EXPECT_NEAR(p.mean_chain_length(), 2.5, 1e-12);
    hap::sim::RandomStream rng(89);
    HapCsOptions opts;
    opts.horizon = 2e5;
    opts.warmup = 2e3;
    const auto res = simulate_hap_cs(p, rng, opts);
    EXPECT_GT(res.transactions, 1000u);
    EXPECT_NEAR(res.chain_length.mean(), 2.5, 0.1);
}

TEST(HapCs, NoFeedbackMeansSingleHops) {
    const HapCsParams p = rlogin_like(0.0, 0.0);
    hap::sim::RandomStream rng(97);
    HapCsOptions opts;
    opts.horizon = 1e5;
    const auto res = simulate_hap_cs(p, rng, opts);
    EXPECT_DOUBLE_EQ(res.chain_length.mean(), 1.0);
    EXPECT_EQ(res.responses, 0u);
}

TEST(HapCs, ThroughputScalesWithChainLength) {
    // Forward-queue load multiplies by the mean chain length.
    hap::sim::RandomStream rng1(101), rng2(103);
    HapCsOptions opts;
    opts.horizon = 2e5;
    opts.warmup = 2e3;
    const auto short_res = simulate_hap_cs(rlogin_like(0.0, 0.0), rng1, opts);
    const auto long_res = simulate_hap_cs(rlogin_like(0.9, 0.9), rng2, opts);
    const double ratio = static_cast<double>(long_res.requests) /
                         static_cast<double>(short_res.requests);
    // Mean chain length of the second system: 1/(1-0.81) ~ 5.26.
    EXPECT_NEAR(ratio, 1.0 / (1.0 - 0.81), 0.6);
    EXPECT_GT(long_res.forward_utilization, short_res.forward_utilization);
}

TEST(HapCs, ResponsesFlowThroughReverseQueue) {
    const HapCsParams p = rlogin_like(1.0, 0.0);  // every request answered once
    hap::sim::RandomStream rng(107);
    HapCsOptions opts;
    opts.horizon = 1e5;
    opts.warmup = 1e3;
    const auto res = simulate_hap_cs(p, rng, opts);
    EXPECT_GT(res.responses, 0u);
    // Every transaction is exactly one request + one response.
    EXPECT_NEAR(res.chain_length.mean(), 1.0, 1e-9);
    EXPECT_NEAR(static_cast<double>(res.responses) /
                    static_cast<double>(res.requests),
                1.0, 0.05);
    EXPECT_GT(res.reverse_utilization, 0.0);
    // Transaction time covers both queue passes.
    EXPECT_GT(res.transaction_time.mean(),
              res.request_delay.mean() + res.response_delay.mean() - 1e-9);
}

TEST(HapCs, TransactionTimeGrowsWithFeedback) {
    hap::sim::RandomStream rng1(109), rng2(113);
    HapCsOptions opts;
    opts.horizon = 2e5;
    opts.warmup = 2e3;
    const auto one = simulate_hap_cs(rlogin_like(0.5, 0.2), rng1, opts);
    const auto two = simulate_hap_cs(rlogin_like(0.9, 0.8), rng2, opts);
    EXPECT_GT(two.transaction_time.mean(), one.transaction_time.mean());
}

TEST(HapCs, HonorsAdmissionBounds) {
    // With max_users / max_apps set, the (x, y) box is the whole model, so
    // the rate of original requests is the bounded chain's exact pi . lambda.
    // No feedback (ps = 0): every request is original and served once.
    HapCsParams p = rlogin_like(0.0, 0.0);
    p.hap.max_users = 1;
    p.hap.max_apps = 1;
    const LumpedChain chain(p.hap, ChainBounds::defaults_for(p.hap));
    const std::vector<double> pi = chain.stationary(1e-13).pi;
    double exact = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) exact += pi[s] * chain.arrival_rates()[s];
    const double unbounded = p.hap.mean_message_rate();  // Eq. 4: 2.0
    ASSERT_LT(exact, 0.5 * unbounded);

    // Ten replications; the tolerance is four standard errors of their
    // mean (a two-sided t_9 test at ~0.3%), and the seeds are fixed.
    HapCsOptions opts;
    opts.horizon = 2e4;
    opts.warmup = 1e2;
    const int reps = 10;
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
        hap::sim::RandomStream rng = hap::sim::RandomStream::substream(
            131, static_cast<std::uint64_t>(r), hap::sim::component_id("hap_cs.bounds"));
        const auto res = simulate_hap_cs(p, rng, opts);
        rates.push_back(static_cast<double>(res.requests) / (opts.horizon - opts.warmup));
    }
    double mean = 0.0;
    for (double x : rates) mean += x;
    mean /= reps;
    double ss = 0.0;
    for (double x : rates) ss += (x - mean) * (x - mean);
    const double se = std::sqrt(ss / (reps - 1) / reps);
    EXPECT_LT(se, 0.01 * exact);
    EXPECT_NEAR(mean, exact, 4.0 * se) << "se " << se;
    EXPECT_LT(mean, unbounded - 100.0 * se);
}

}  // namespace
