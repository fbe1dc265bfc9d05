// Unit tests for the statistics substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"
#include "stats/busy_period.hpp"
#include "stats/online_stats.hpp"
#include "stats/series.hpp"

namespace {

using hap::stats::BusyPeriodTracker;
using hap::stats::OnlineStats;
using hap::stats::TimeWeightedStats;

TEST(OnlineStats, MeanVarianceMinMax) {
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(OnlineStats, MergeEqualsPooled) {
    OnlineStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double v = std::sin(i * 0.7) * 3.0 + i * 0.01;
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(OnlineStats, ScvOfConstantIsZero) {
    OnlineStats s;
    for (int i = 0; i < 10; ++i) s.add(3.0);
    EXPECT_DOUBLE_EQ(s.scv(), 0.0);
}

TEST(TimeWeighted, PiecewiseConstantMean) {
    TimeWeightedStats tw(0.0, 0.0);
    tw.update(2.0, 4.0);   // value 0 on [0,2)
    tw.update(6.0, 1.0);   // value 4 on [2,6)
    tw.finish(10.0);       // value 1 on [6,10)
    EXPECT_DOUBLE_EQ(tw.elapsed(), 10.0);
    EXPECT_DOUBLE_EQ(tw.mean(), (0 * 2 + 4 * 4 + 1 * 4) / 10.0);
    EXPECT_DOUBLE_EQ(tw.max(), 4.0);
}

TEST(TimeWeighted, VarianceNonNegative) {
    TimeWeightedStats tw(0.0, 5.0);
    tw.finish(3.0);
    EXPECT_NEAR(tw.variance(), 0.0, 1e-12);
    EXPECT_DOUBLE_EQ(tw.mean(), 5.0);
}

TEST(TimeWeighted, MergeEqualsSequentialPassOnSplitStream) {
    // One piecewise-constant signal observed in a single pass vs. split at
    // t = 5 into two windows and merged.
    hap::sim::RandomStream rng(21);
    std::vector<std::pair<double, double>> events;  // (time, new value)
    double t = 0.0;
    double v = 0.0;
    for (int i = 0; i < 200; ++i) {
        t += rng.exponential(10.0);
        v = std::floor(rng.uniform() * 5.0);
        events.emplace_back(t, v);
    }
    const double split = 5.0, end = t + 0.5;

    TimeWeightedStats whole(0.0, 0.0), first(0.0, 0.0);
    TimeWeightedStats second;
    double value_at_split = 0.0;
    bool second_started = false;
    for (const auto& [time, value] : events) {
        whole.update(time, value);
        if (time < split) {
            first.update(time, value);
            value_at_split = value;
        } else {
            if (!second_started) {
                first.finish(split);
                second = TimeWeightedStats(split, value_at_split);
                second_started = true;
            }
            second.update(time, value);
        }
    }
    whole.finish(end);
    second.finish(end);

    first.merge(second);
    EXPECT_NEAR(first.elapsed(), whole.elapsed(), 1e-9);
    EXPECT_NEAR(first.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(first.variance(), whole.variance(), 1e-12);
    EXPECT_DOUBLE_EQ(first.max(), whole.max());
}

TEST(BusyPeriod, MergeEqualsSequentialPassWhenSplitAtBusyEnd) {
    // A random walk through busy/idle periods, split at a busy→idle
    // transition (no period straddles the cut): the merged trackers must
    // reproduce the single-pass decomposition.
    hap::sim::RandomStream rng(22);
    std::vector<std::pair<double, std::uint64_t>> events;
    double t = 0.0;
    std::uint64_t n = 0;
    for (int i = 0; i < 400; ++i) {
        t += rng.exponential(5.0);
        if (n == 0 || rng.bernoulli(0.45))
            ++n;
        else
            --n;
        events.emplace_back(t, n);
    }
    // Split after the 10th return to empty.
    double split = -1.0;
    int zeros = 0;
    for (const auto& [time, value] : events)
        if (value == 0 && ++zeros == 10) {
            split = time;
            break;
        }
    ASSERT_GT(split, 0.0);
    const double end = t + 1.0;

    BusyPeriodTracker whole(0.0), first(0.0), second(split);
    for (const auto& [time, value] : events) {
        whole.observe(time, value);
        (time <= split ? first : second).observe(time, value);
    }
    whole.finish(end);
    first.finish(split);
    second.finish(end);

    first.merge(second);
    EXPECT_EQ(first.mountains(), whole.mountains());
    EXPECT_NEAR(first.busy_lengths().mean(), whole.busy_lengths().mean(), 1e-12);
    EXPECT_NEAR(first.busy_lengths().variance(), whole.busy_lengths().variance(), 1e-12);
    EXPECT_NEAR(first.idle_lengths().mean(), whole.idle_lengths().mean(), 1e-12);
    EXPECT_NEAR(first.heights().mean(), whole.heights().mean(), 1e-12);
    EXPECT_NEAR(first.heights().variance(), whole.heights().variance(), 1e-12);
    EXPECT_NEAR(first.busy_fraction(), whole.busy_fraction(), 1e-12);
}

TEST(Series, BatchMeansCoversTrueMean) {
    hap::sim::RandomStream rng(11);
    std::vector<double> s;
    for (int i = 0; i < 10000; ++i) s.push_back(rng.exponential(2.0));
    const auto r = hap::stats::batch_means(s, 20);
    EXPECT_NEAR(r.mean, 0.5, 0.05);
    EXPECT_GT(r.half_width, 0.0);
    EXPECT_LT(std::abs(r.mean - 0.5), 4.0 * r.half_width);
}

TEST(Series, PoissonIdcNearOne) {
    hap::sim::RandomStream rng(3);
    std::vector<double> times;
    double t = 0.0;
    for (int i = 0; i < 100000; ++i) {
        t += rng.exponential(5.0);
        times.push_back(t);
    }
    const double idc = hap::stats::index_of_dispersion(times, 10.0);
    EXPECT_NEAR(idc, 1.0, 0.15);
    EXPECT_NEAR(hap::stats::interarrival_scv(times), 1.0, 0.05);
}

TEST(Series, DeterministicStreamIdcNearZero) {
    std::vector<double> times;
    for (int i = 1; i <= 10000; ++i) times.push_back(i * 0.1);
    EXPECT_LT(hap::stats::index_of_dispersion(times, 10.0), 0.05);
    EXPECT_LT(hap::stats::interarrival_scv(times), 1e-10);
}

TEST(BusyPeriod, DecomposesSimplePath) {
    BusyPeriodTracker bp(0.0);
    bp.observe(1.0, 1);  // idle [0,1), busy starts
    bp.observe(2.0, 2);
    bp.observe(3.0, 1);
    bp.observe(4.0, 0);  // busy [1,4) height 2
    bp.observe(6.0, 1);  // idle [4,6)
    bp.observe(7.0, 0);  // busy [6,7) height 1
    bp.finish(8.0);
    EXPECT_EQ(bp.mountains(), 2u);
    EXPECT_DOUBLE_EQ(bp.busy_lengths().mean(), 2.0);
    EXPECT_DOUBLE_EQ(bp.idle_lengths().mean(), 1.5);
    EXPECT_DOUBLE_EQ(bp.heights().mean(), 1.5);
    EXPECT_DOUBLE_EQ(bp.busy_fraction(), 4.0 / 8.0);
}

TEST(BusyPeriod, NonzeroStartTimeDoesNotInflateFirstIdle) {
    // Regression: a tracker started at t0 (e.g. after a warmup) must measure
    // the first idle period from t0, not from 0 — a 50,000-second phantom
    // idle once poisoned the Fig. 18 idle variances.
    BusyPeriodTracker bp(50000.0);
    bp.observe(50000.5, 1);
    bp.observe(50001.0, 0);
    bp.observe(50002.0, 1);
    bp.observe(50003.0, 0);
    bp.finish(50004.0);
    EXPECT_DOUBLE_EQ(bp.idle_lengths().max(), 1.0);
    EXPECT_DOUBLE_EQ(bp.idle_lengths().mean(), 0.75);
}

TEST(BusyPeriod, OpenPeriodNotCounted) {
    BusyPeriodTracker bp(0.0);
    bp.observe(1.0, 1);
    bp.finish(5.0);  // busy period still open
    EXPECT_EQ(bp.mountains(), 0u);
    EXPECT_DOUBLE_EQ(bp.busy_fraction(), 4.0 / 5.0);
}

}  // namespace
