// Event-engine overhaul tests: ring-buffer FIFO semantics, the BlockRng
// draw-sequence contract, devirtualized-vs-virtual kernel identity, the
// "events executed" counter semantics, and the HapSource incremental-rate
// regression against a per-iteration re-derivation of the historical code.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/hap_params.hpp"
#include "core/hap_sim.hpp"
#include "queueing/queue_sim.hpp"
#include "sim/distributions.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"
#include "trace/arrival_log.hpp"
#include "traffic/mmpp.hpp"
#include "traffic/onoff.hpp"
#include "traffic/poisson.hpp"
#include "traffic/superposition.hpp"

namespace {

using hap::core::HapParams;
using hap::core::HapSimOptions;
using hap::core::HapSource;
using hap::core::simulate_hap_queue;
using hap::queueing::QueueSimOptions;
using hap::queueing::QueueSimResult;
using hap::queueing::simulate_queue;
using hap::sim::BlockRng;
using hap::sim::Deterministic;
using hap::sim::Exponential;
using hap::sim::RandomStream;
using hap::sim::RingBuffer;
using hap::trace::TraceReplaySource;
using hap::traffic::Mmpp;
using hap::traffic::OnOffSource;
using hap::traffic::PoissonSource;
using hap::traffic::SuperpositionSource;

// --------------------------------------------------------------------------
// RingBuffer

TEST(RingBuffer, FifoOrder) {
    RingBuffer<int> rb(4);
    EXPECT_TRUE(rb.empty());
    for (int i = 0; i < 4; ++i) rb.push_back(i);
    EXPECT_EQ(rb.size(), 4u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WrapAroundKeepsOrder) {
    // Steady-state churn well past the capacity: the head walks around the
    // ring many times while the occupancy stays below the growth threshold.
    RingBuffer<int> rb(4);
    EXPECT_EQ(rb.capacity(), 4u);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 100; ++round) {
        while (rb.size() < 3) rb.push_back(next_in++);
        while (!rb.empty()) EXPECT_EQ(rb.pop_front(), next_out++);
    }
    EXPECT_EQ(rb.capacity(), 4u);  // never grew
}

TEST(RingBuffer, GrowthRelinearizesLiveRange) {
    RingBuffer<int> rb(4);
    // Offset the head so growth must re-linearize a wrapped live range.
    rb.push_back(-1);
    rb.push_back(-2);
    EXPECT_EQ(rb.pop_front(), -1);
    EXPECT_EQ(rb.pop_front(), -2);
    for (int i = 0; i < 1000; ++i) rb.push_back(i);
    EXPECT_GE(rb.capacity(), 1024u);
    EXPECT_EQ(rb.size(), 1000u);
    EXPECT_EQ(rb.front(), 0);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(rb.pop_front(), i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(RingBuffer<int>(1).capacity(), 1u);
    EXPECT_EQ(RingBuffer<int>(3).capacity(), 4u);
    EXPECT_EQ(RingBuffer<int>(64).capacity(), 64u);
    EXPECT_EQ(RingBuffer<int>(65).capacity(), 128u);
}

TEST(RingBuffer, FrontSlotIsDefinedWhenEmpty) {
    // front_slot() backs the engines' branchless head-rate select: slots are
    // value-initialized, so the read is defined (and zero) on a fresh ring.
    RingBuffer<double> rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.front_slot(), 0.0);
}

TEST(RingBuffer, ClearResets) {
    RingBuffer<int> rb(4);
    rb.push_back(7);
    rb.push_back(8);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    rb.push_back(9);
    EXPECT_EQ(rb.pop_front(), 9);
}

// --------------------------------------------------------------------------
// BlockRng draw-sequence contract

TEST(BlockRng, MatchesScalarDrawSequence) {
    RandomStream blocked(12345);
    RandomStream scalar(12345);
    BlockRng blk(blocked);
    // Mixed uniform/exponential pattern spanning several refills.
    for (int i = 0; i < 3000; ++i) {
        if (i % 3 == 0) {
            EXPECT_EQ(blk.exponential(2.5), scalar.exponential(2.5)) << "draw " << i;
        } else {
            EXPECT_EQ(blk.uniform(), scalar.uniform()) << "draw " << i;
        }
    }
}

TEST(BlockRng, FinishRestoresStreamStateExactly) {
    RandomStream blocked(99);
    RandomStream scalar(99);
    {
        BlockRng blk(blocked);
        // Consume a count that is not a multiple of the block size, so the
        // stream is over-drawn by a partial block until finish().
        for (int i = 0; i < 700; ++i) EXPECT_EQ(blk.uniform(), scalar.uniform());
    }  // destructor runs finish()
    // The streams must now agree draw-for-draw: no lost or extra draws.
    for (int i = 0; i < 2000; ++i) EXPECT_EQ(blocked.uniform(), scalar.uniform());
}

TEST(BlockRng, UnusedBlockLeavesStreamUntouched) {
    RandomStream blocked(7);
    RandomStream scalar(7);
    { BlockRng blk(blocked); }  // never drew: stream must be untouched
    for (int i = 0; i < 100; ++i) EXPECT_EQ(blocked.uniform(), scalar.uniform());
}

// --------------------------------------------------------------------------
// Devirtualized vs virtual kernel identity

void expect_identical(const QueueSimResult& a, const QueueSimResult& b) {
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.delay.count(), b.delay.count());
    EXPECT_EQ(a.delay.mean(), b.delay.mean());
    EXPECT_EQ(a.delay.variance(), b.delay.variance());
    EXPECT_EQ(a.wait.mean(), b.wait.mean());
    EXPECT_EQ(a.number.mean(), b.number.mean());
    EXPECT_EQ(a.number.variance(), b.number.variance());
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.busy.mountains(), b.busy.mountains());
    EXPECT_EQ(a.busy.busy_lengths().mean(), b.busy.busy_lengths().mean());
}

// Runs the kernel on a source built by `make` twice with equal seeds: once
// with the concrete static types (the devirtualized instantiation) and once
// through the abstract bases (the virtual-call instantiation). The two must
// agree on every statistic and leave their streams at the same point.
// Returns the devirtualized run.
template <typename Make, typename Service>
QueueSimResult expect_devirt_matches_virtual(Make make, const Service& svc,
                                             std::uint64_t seed,
                                             const QueueSimOptions& opts) {
    auto a = make();
    RandomStream rng_a(seed);
    const QueueSimResult devirt = simulate_queue(a, svc, rng_a, opts);

    auto b = make();
    RandomStream rng_b(seed);
    hap::traffic::ArrivalProcess& base_arr = b;
    const hap::sim::Distribution& base_svc = svc;
    expect_identical(devirt, simulate_queue(base_arr, base_svc, rng_b, opts));
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
    return devirt;
}

TEST(QueueSimDevirt, PoissonExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 5e4;
    opts.warmup = 1e3;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [] { return PoissonSource(1.0); }, Exponential(1.25), 424242, opts);
    EXPECT_GT(res.departures, 0u);
}

TEST(QueueSimDevirt, OnOffExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 5e4;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [] { return OnOffSource(0.2, 0.6, 3.0); }, Exponential(4.0), 7, opts);
    EXPECT_GT(res.departures, 0u);
}

TEST(QueueSimDevirt, MmppExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 5e4;
    opts.warmup = 1e3;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [] { return Mmpp::two_state(0.1, 0.9, 0.5, 6.0); }, Exponential(2.5), 31, opts);
    EXPECT_GT(res.departures, 0u);
}

TEST(QueueSimDevirt, OnOffDeterministicByteIdentical) {
    // A non-exponential service: sample() draws nothing, so the arrival
    // stream alone advances the RNG.
    QueueSimOptions opts;
    opts.horizon = 5e4;
    opts.warmup = 1e3;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [] { return OnOffSource(0.2, 0.6, 3.0); }, Deterministic(1.0), 13, opts);
    EXPECT_GT(res.departures, 0u);
}

TEST(QueueSimDevirt, TraceReplayExponentialByteIdentical) {
    // The trace ends well before the horizon, so both loops stop on the
    // +infinity arrival once the queue drains.
    std::vector<double> times;
    PoissonSource gen(1.0);
    RandomStream trace_rng(5);
    for (int i = 0; i < 2000; ++i) times.push_back(gen.next(trace_rng));
    QueueSimOptions opts;
    opts.horizon = 1e5;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [&] { return TraceReplaySource(times); }, Exponential(1.5), 17, opts);
    EXPECT_EQ(res.arrivals, times.size());
    EXPECT_EQ(res.departures, times.size());
}

TEST(QueueSimDevirt, FiniteBufferByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 2e4;
    opts.buffer_capacity = 3;
    const QueueSimResult res = expect_devirt_matches_virtual(
        [] { return PoissonSource(1.0); }, Exponential(0.9), 11, opts);
    EXPECT_GT(res.losses, 0u);
}

TEST(QueueSimDevirt, HapSourceExponentialByteIdentical) {
    QueueSimOptions opts;
    opts.horizon = 2e4;
    opts.warmup = 1e3;
    const HapParams params = HapParams::paper_baseline(17.0);
    const QueueSimResult res = expect_devirt_matches_virtual(
        [&] { return HapSource(params); }, Exponential(17.0), 2024, opts);
    EXPECT_GT(res.departures, 0u);
}

// --------------------------------------------------------------------------
// "Events executed" counter semantics (both engines, aligned)

TEST(EventSemantics, QueueSimCountsOnlyExecutedEvents) {
    // With no warmup and an infinite buffer every executed event is exactly
    // one counted arrival or departure, so the counter decomposes with no
    // +1 from the final (unexecuted) horizon-crossing draw.
    QueueSimOptions opts;
    opts.horizon = 1e3;
    const Exponential svc(1.5);
    hap::traffic::PoissonSource src(1.0);
    RandomStream rng(3);
    const QueueSimResult res = simulate_queue(src, svc, rng, opts);
    EXPECT_GT(res.events, 0u);
    EXPECT_EQ(res.events, res.arrivals + res.departures);
}

TEST(EventSemantics, QueueSimStopsWhenMergedReplaysRunDry) {
    // A merge of two finite replays runs dry after three arrivals; the
    // kernel keeps asking the exhausted merge for its next arrival and must
    // stop cleanly once the queue drains, long before the horizon.
    std::vector<hap::traffic::ArrivalProcessPtr> sources;
    sources.push_back(std::make_unique<TraceReplaySource>(std::vector<double>{1.0, 3.0}));
    sources.push_back(std::make_unique<TraceReplaySource>(std::vector<double>{2.0}));
    SuperpositionSource merged(std::move(sources));
    QueueSimOptions opts;
    opts.horizon = 1e3;
    RandomStream rng(19);
    const QueueSimResult res = simulate_queue(merged, Exponential(5.0), rng, opts);
    EXPECT_EQ(res.arrivals, 3u);
    EXPECT_EQ(res.departures, 3u);
    EXPECT_EQ(res.events, 6u);
}

TEST(EventSemantics, HapSimCountsOnlyExecutedEvents) {
    // Same decomposition for the HAP engine: message arrivals + service
    // completions + population changes (counted via the hook) must equal
    // `events` exactly. The historical loop reported one extra event — the
    // draw that first crossed the horizon.
    HapSimOptions opts;
    opts.horizon = 2e3;
    std::uint64_t pop_changes = 0;
    opts.on_population_change = [&](double, std::uint64_t, std::uint64_t) {
        ++pop_changes;
    };
    const HapParams params = HapParams::paper_baseline(17.0);
    RandomStream rng(5);
    const auto res = simulate_hap_queue(params, rng, opts);
    EXPECT_GT(res.events, 0u);
    EXPECT_EQ(res.events, res.arrivals + res.departures + pop_changes);
}

// --------------------------------------------------------------------------
// HapSource incremental bookkeeping regression

// Per-iteration re-derivation of the historical HapSource::next: re-sums the
// app population and rebuilds every aggregate rate on each loop pass. The
// production class keeps these incrementally; the sequences must agree
// bit-for-bit.
class ReferenceHapSource {
public:
    explicit ReferenceHapSource(HapParams params) : params_(std::move(params)) {
        users_ = params_.permanent_users > 0
                     ? params_.permanent_users
                     : static_cast<std::uint64_t>(params_.mean_users() + 0.5);
        apps_.assign(params_.num_app_types(), 0);
        for (std::size_t i = 0; i < apps_.size(); ++i) {
            const auto& a = params_.apps[i];
            apps_[i] = static_cast<std::uint64_t>(
                static_cast<double>(users_) * a.arrival_rate / a.departure_rate +
                0.5);
        }
    }

    double next(RandomStream& rng) {
        const bool dynamic_users = params_.permanent_users == 0;
        const std::size_t l = params_.num_app_types();
        for (;;) {
            const double xd = static_cast<double>(users_);
            std::uint64_t total_apps = 0;
            for (std::uint64_t y : apps_) total_apps += y;

            const bool user_ok = dynamic_users &&
                                 (params_.max_users == 0 || users_ < params_.max_users);
            const bool app_ok =
                params_.max_apps == 0 || total_apps < params_.max_apps;

            double total = 0.0;
            const double r_user_arr = user_ok ? params_.user_arrival_rate : 0.0;
            const double r_user_dep =
                dynamic_users ? xd * params_.user_departure_rate : 0.0;
            total += r_user_arr + r_user_dep;
            double msg_total = 0.0;
            for (std::size_t i = 0; i < l; ++i) {
                const auto& a = params_.apps[i];
                const double yd = static_cast<double>(apps_[i]);
                total += (app_ok ? xd * a.arrival_rate : 0.0) + yd * a.departure_rate;
                msg_total += yd * a.total_message_rate();
            }
            total += msg_total;
            if (total <= 0.0) return std::numeric_limits<double>::infinity();

            time_ += rng.exponential(total);
            double u = rng.uniform() * total;

            if (u < msg_total) return time_;
            u -= msg_total;
            if (u < r_user_arr) {
                ++users_;
                continue;
            }
            u -= r_user_arr;
            if (u < r_user_dep) {
                --users_;
                continue;
            }
            u -= r_user_dep;
            for (std::size_t i = 0; i < l; ++i) {
                const auto& a = params_.apps[i];
                const double arr = app_ok ? xd * a.arrival_rate : 0.0;
                if (u < arr) {
                    ++apps_[i];
                    break;
                }
                u -= arr;
                const double dep = static_cast<double>(apps_[i]) * a.departure_rate;
                if (u < dep) {
                    --apps_[i];
                    break;
                }
                u -= dep;
            }
        }
    }

private:
    HapParams params_;
    double time_ = 0.0;
    std::uint64_t users_ = 0;
    std::vector<std::uint64_t> apps_;
};

TEST(HapSourceIncremental, LongDrawSequenceMatchesReference) {
    const HapParams params = HapParams::paper_baseline(17.0);
    HapSource fast(params);
    ReferenceHapSource ref(params);
    RandomStream rng_fast(20260809);
    RandomStream rng_ref(20260809);
    for (int i = 0; i < 200000; ++i) {
        const double tf = fast.next(rng_fast);
        const double tr = ref.next(rng_ref);
        ASSERT_EQ(tf, tr) << "message " << i;
    }
}

TEST(HapSourceIncremental, ResetRestartsSequence) {
    const HapParams params = HapParams::paper_baseline(20.0);
    HapSource src(params);
    RandomStream a(1);
    std::vector<double> first;
    for (int i = 0; i < 1000; ++i) first.push_back(src.next(a));
    src.reset();
    RandomStream b(1);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(src.next(b), first[static_cast<std::size_t>(i)]);
}

// Bounded-population configuration exercises the cached app_ok_/user-bound
// branches of the incremental path.
TEST(HapSourceIncremental, BoundedPopulationMatchesReference) {
    HapParams params = HapParams::paper_baseline(17.0);
    params.max_users = 20;
    params.max_apps = 60;
    HapSource fast(params);
    ReferenceHapSource ref(params);
    RandomStream rng_fast(77);
    RandomStream rng_ref(77);
    for (int i = 0; i < 50000; ++i) ASSERT_EQ(fast.next(rng_fast), ref.next(rng_ref)) << i;
}

}  // namespace
