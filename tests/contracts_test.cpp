// Contract-macro tests: each macro class must fire (throw ContractViolation)
// on bad input at the instrumented boundaries, and pass silently on good
// input. The HAP_NO_CONTRACTS no-op build is covered by contracts_off_test.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/contracts.hpp"
#include "core/solution0.hpp"
#include "core/solution3.hpp"
#include "experiment/result.hpp"
#include "markov/ctmc.hpp"
#include "numerics/matrix.hpp"
#include "markov/qbd.hpp"
#include "queueing/gm1.hpp"
#include "stats/busy_period.hpp"
#include "stats/online_stats.hpp"

namespace {

using hap::core::ContractViolation;
using hap::experiment::MergedResult;
using hap::experiment::ReplicationResult;
using hap::stats::BusyPeriodTracker;
using hap::stats::OnlineStats;
using hap::stats::TimeWeightedStats;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- raw macro behaviour ---------------------------------------------------

TEST(Contracts, PrecondFiresOnFalse) {
    EXPECT_THROW(HAP_PRECOND(1 + 1 == 3), ContractViolation);
    EXPECT_NO_THROW(HAP_PRECOND(1 + 1 == 2));
}

TEST(Contracts, CheckFiniteFiresOnNanAndInf) {
    EXPECT_THROW(HAP_CHECK_FINITE(kNan), ContractViolation);
    EXPECT_THROW(HAP_CHECK_FINITE(kInf), ContractViolation);
    EXPECT_THROW(HAP_CHECK_FINITE(-kInf), ContractViolation);
    EXPECT_NO_THROW(HAP_CHECK_FINITE(0.0));
    EXPECT_NO_THROW(HAP_CHECK_FINITE(-1e300));
}

TEST(Contracts, CheckProbFiresOutsideUnitInterval) {
    EXPECT_THROW(HAP_CHECK_PROB(-0.01), ContractViolation);
    EXPECT_THROW(HAP_CHECK_PROB(1.01), ContractViolation);
    EXPECT_THROW(HAP_CHECK_PROB(kNan), ContractViolation);
    EXPECT_NO_THROW(HAP_CHECK_PROB(0.0));
    EXPECT_NO_THROW(HAP_CHECK_PROB(1.0));
    // Solver roundoff slack: a hair outside [0,1] is noise, not a defect.
    EXPECT_NO_THROW(HAP_CHECK_PROB(-1e-12));
    EXPECT_NO_THROW(HAP_CHECK_PROB(1.0 + 1e-12));
}

TEST(Contracts, ViolationMessageNamesTheExpression) {
    try {
        HAP_PRECOND(2 < 1);
        FAIL() << "HAP_PRECOND(2 < 1) did not throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("2 < 1"), std::string::npos);
    }
}

// --- stats merge()/update() boundaries -------------------------------------

TEST(Contracts, TimeWeightedStatsRejectsBackwardTime) {
    TimeWeightedStats tw(0.0, 0.0);
    tw.update(10.0, 1.0);
    EXPECT_THROW(tw.update(9.0, 2.0), ContractViolation);  // time moved back
    EXPECT_NO_THROW(tw.update(10.0, 2.0));                 // equal time is fine
}

TEST(Contracts, OnlineStatsMergeRejectsNonFiniteMoments) {
    OnlineStats good;
    good.add(1.0);
    OnlineStats poisoned;
    poisoned.add(kNan);
    EXPECT_THROW(good.merge(poisoned), ContractViolation);
}

TEST(Contracts, BusyPeriodTrackerRejectsBackwardTime) {
    BusyPeriodTracker b(0.0);
    b.observe(5.0, 1);
    EXPECT_THROW(b.observe(4.0, 0), ContractViolation);
}

TEST(Contracts, MergedResultRejectsPoisonedReplication) {
    ReplicationResult r;
    r.arrivals = 10;
    r.departures = 10;
    r.observed_time = 100.0;
    r.utilization = 1.5;  // not a probability
    EXPECT_THROW((void)MergedResult::merge({r}), ContractViolation);

    r.utilization = 0.5;
    r.departures = 11;  // more departures than counted arrivals
    EXPECT_THROW((void)MergedResult::merge({r}), ContractViolation);

    r.departures = 10;
    r.observed_time = kInf;
    EXPECT_THROW((void)MergedResult::merge({r}), ContractViolation);

    r.observed_time = 100.0;
    EXPECT_NO_THROW((void)MergedResult::merge({r}));
}

// --- solver boundaries ------------------------------------------------------

TEST(Contracts, CtmcRejectsNanRate) {
    hap::markov::Ctmc chain(2);
    // NaN passes both `rate < 0` and `rate == 0`; only the finite check
    // stands between it and the generator.
    EXPECT_THROW(chain.add_transition(0, 1, kNan), ContractViolation);
    EXPECT_NO_THROW(chain.add_transition(0, 1, 1.0));
}

TEST(Contracts, QbdRejectsNonFiniteArrivalRates) {
    hap::numerics::Matrix q(2, 2);
    q(0, 0) = -1.0; q(0, 1) = 1.0;
    q(1, 0) = 1.0;  q(1, 1) = -1.0;
    EXPECT_THROW(hap::markov::solve_mmpp_m1(q, {1.0, kNan}, 10.0),
                 ContractViolation);
    EXPECT_THROW(hap::markov::solve_mmpp_m1(q, {1.0, -2.0}, 10.0),
                 ContractViolation);
    EXPECT_NO_THROW(hap::markov::solve_mmpp_m1(q, {1.0, 2.0}, 10.0));
}

TEST(Contracts, Gm1RejectsNonFiniteRates) {
    const auto poisson = [](double s) { return 1.0 / (1.0 + s); };
    EXPECT_THROW((void)hap::queueing::solve_gm1(poisson, kInf, 0.5),
                 ContractViolation);
    EXPECT_THROW((void)hap::queueing::solve_gm1(poisson, 2.0, kNan),
                 std::exception);  // NaN fails <= 0 check or the finite check
}

TEST(Contracts, Solution0RejectsDegenerateOptions) {
    const hap::core::HapParams p = hap::core::HapParams::paper_baseline(20.0);
    hap::core::Solution0Options o;
    o.tol = 0.0;
    EXPECT_THROW(hap::core::solve_solution0(p, o), ContractViolation);
    o.tol = 1e-6;
    o.max_sweeps = 0;
    EXPECT_THROW(hap::core::solve_solution0(p, o), ContractViolation);
}

}  // namespace
