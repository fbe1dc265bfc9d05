// hapd's solve-queue policy without sockets, threads or sleeps: the overload
// ladder's rungs, leader/follower batching, round order and deadline claims,
// driven through SolveScheduler with synthetic time points.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "service/scheduler.hpp"

namespace {

using hap::service::Claim;
using hap::service::ClaimState;
using hap::service::ModelSpec;
using hap::service::Round;
using hap::service::Rung;
using hap::service::SchedClock;
using hap::service::SolveScheduler;
using std::chrono::milliseconds;

constexpr SchedClock::time_point kNoDeadline = SchedClock::time_point::max();
const SchedClock::time_point t0{};

ModelSpec model(double lambda) {
    ModelSpec m;
    m.lambda = lambda;
    m.service = 30.0;
    return m;
}

std::vector<double> coords(const Round& round) {
    std::vector<double> out;
    for (const auto& p : round.points) out.push_back(p.model.lambda);
    return out;
}

TEST(SolveScheduler, RungBoundariesFollowTheResolvedDepths) {
    SolveScheduler s(/*degrade_depth=*/2, /*shed_depth=*/4);
    EXPECT_EQ(s.admit().rung, Rung::Solve);
    const auto at_degrade = s.admit();  // depth == degrade_depth
    EXPECT_EQ(at_degrade.rung, Rung::Solve);
    EXPECT_EQ(at_degrade.depth, 2u);
    const auto past_degrade = s.admit();  // degrade_depth + 1
    EXPECT_EQ(past_degrade.rung, Rung::Degrade);
    EXPECT_EQ(past_degrade.depth, 3u);
    EXPECT_EQ(s.admit().rung, Rung::Degrade);  // depth == shed_depth
    const auto past_shed = s.admit();          // shed_depth + 1
    EXPECT_EQ(past_shed.rung, Rung::Shed);
    EXPECT_EQ(past_shed.depth, 5u);  // the gauge sees the shed request
    EXPECT_EQ(s.depth(), 4u);        // but it holds no slot
    s.release();
    EXPECT_EQ(s.admit().rung, Rung::Degrade);
}

TEST(SolveScheduler, DepthSlotIsReleasedOnEveryExit) {
    SolveScheduler s(/*degrade_depth=*/2, /*shed_depth=*/3);
    ASSERT_EQ(s.admit().rung, Rung::Solve);  // A leads its bucket
    const Claim a = s.join(model(0.002), false);
    const Round a_round = s.take(a);
    ASSERT_EQ(s.admit().rung, Rung::Solve);  // B queues behind A
    const Claim b = s.join(model(0.003), false);
    ASSERT_FALSE(b.leader);
    ASSERT_EQ(s.admit().rung, Rung::Degrade);  // C will answer approx
    ASSERT_EQ(s.admit().rung, Rung::Shed);     // D is shed and holds no slot
    EXPECT_EQ(s.depth(), 3u);

    s.release();  // C: approx
    EXPECT_EQ(s.depth(), 2u);
    ASSERT_EQ(s.settle(b, t0 + milliseconds(10), t0 + milliseconds(10)),
              ClaimState::Expired);
    s.release();  // B: expired
    EXPECT_EQ(s.depth(), 1u);
    s.finish(a_round.points);
    EXPECT_TRUE(s.take(a).points.empty());
    s.release();  // A: answered
    EXPECT_EQ(s.depth(), 0u);
}

TEST(SolveScheduler, ClampedAndFullBudgetMissesBatchSeparately) {
    SolveScheduler s(1, 4);
    const Claim full = s.join(model(0.002), /*clamped=*/false);
    const Claim clamped = s.join(model(0.002), /*clamped=*/true);
    EXPECT_TRUE(full.leader);
    EXPECT_TRUE(clamped.leader);  // its own bucket, idle until now
    EXPECT_NE(full.waiter, clamped.waiter);
    EXPECT_EQ(full.family, clamped.family);
    EXPECT_FALSE(full.clamped);
    EXPECT_TRUE(clamped.clamped);
    EXPECT_EQ(s.take(full).points.size(), 1u);
    EXPECT_EQ(s.take(clamped).points.size(), 1u);
}

TEST(SolveScheduler, BitEqualKeysShareOneWaiter) {
    SolveScheduler s(1, 4);
    const Claim busy = s.join(model(0.001), false);
    const Round busy_round = s.take(busy);
    const Claim a = s.join(model(0.002), false);
    const Claim b = s.join(model(0.002), false);
    EXPECT_FALSE(a.leader);
    EXPECT_FALSE(b.leader);
    EXPECT_EQ(a.waiter, b.waiter);
    EXPECT_EQ(a.waiter->claims, 2u);
    s.finish(busy_round.points);

    const Round round = s.take(busy);
    ASSERT_EQ(round.points.size(), 1u);
    EXPECT_EQ(round.points[0].waiter, a.waiter);
    EXPECT_EQ(s.settle(b, t0 + milliseconds(5), t0), ClaimState::Waiting);
    s.finish(round.points);
    EXPECT_EQ(s.settle(a, kNoDeadline, t0), ClaimState::Answered);
    // An answer beats a lapsed deadline.
    EXPECT_EQ(s.settle(b, t0 + milliseconds(5), t0 + milliseconds(50)),
              ClaimState::Answered);
}

TEST(SolveScheduler, RoundsAreSortedByCoordinateAndTheBucketIdlesWhenDrained) {
    SolveScheduler s(1, 4);
    const Claim leader = s.join(model(0.003), false);
    ASSERT_TRUE(leader.leader);
    const Round first = s.take(leader);
    EXPECT_EQ(coords(first), (std::vector<double>{0.003}));
    for (const double lambda : {0.004, 0.001, 0.002})
        EXPECT_FALSE(s.join(model(lambda), false).leader);
    s.finish(first.points);
    const Round second = s.take(leader);
    EXPECT_EQ(coords(second), (std::vector<double>{0.001, 0.002, 0.004}));
    s.finish(second.points);
    EXPECT_TRUE(s.take(leader).points.empty());
    EXPECT_TRUE(s.join(model(0.005), false).leader);
}

TEST(SolveScheduler, PointWhoseOnlyClaimantExpiredIsDroppedAtTake) {
    SolveScheduler s(1, 4);
    const Claim leader = s.join(model(0.002), false);
    const Round first = s.take(leader);
    const Claim late = s.join(model(0.0022), false);
    const SchedClock::time_point deadline = t0 + milliseconds(150);
    EXPECT_EQ(s.settle(late, deadline, t0 + milliseconds(149)), ClaimState::Waiting);
    EXPECT_EQ(s.settle(late, deadline, deadline), ClaimState::Expired);
    EXPECT_EQ(late.waiter->claims, 0u);
    s.finish(first.points);

    const Round next = s.take(leader);
    EXPECT_TRUE(next.points.empty());  // no round, so no solve
    EXPECT_EQ(next.expired, 1u);
    EXPECT_FALSE(late.waiter->done);
    EXPECT_TRUE(s.join(model(0.0022), false).leader);  // bucket idle
}

TEST(SolveScheduler, SameKeyArrivalRevivesAnExpiredPointBeforeTheTake) {
    SolveScheduler s(1, 4);
    const Claim leader = s.join(model(0.002), false);
    const Round first = s.take(leader);
    const Claim late = s.join(model(0.0022), false);
    ASSERT_EQ(s.settle(late, t0 + milliseconds(150), t0 + milliseconds(200)),
              ClaimState::Expired);
    const Claim again = s.join(model(0.0022), false);
    EXPECT_FALSE(again.leader);
    EXPECT_EQ(again.waiter, late.waiter);
    EXPECT_EQ(again.waiter->claims, 1u);
    s.finish(first.points);

    const Round next = s.take(leader);
    EXPECT_EQ(next.expired, 0u);
    EXPECT_EQ(coords(next), (std::vector<double>{0.0022}));
    s.finish(next.points);
    EXPECT_EQ(s.settle(again, kNoDeadline, t0 + milliseconds(300)), ClaimState::Answered);
}

}  // namespace
