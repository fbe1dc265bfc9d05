// Event-engine overhaul tests: ring-buffer FIFO semantics, the BlockRng
// draw-sequence contract, devirtualized-vs-virtual kernel identity, the
// "events executed" counter semantics, the population kernel's fast pick
// against its defining walk, and HapSource's rates against exact ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/hap_chain.hpp"
#include "core/hap_params.hpp"
#include "core/hap_population.hpp"
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
using hap::core::detail::Population;
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
// Population kernel (core/hap_population.hpp)

// Drive the kernel through seeded population events and, in every state
// visited, compare the guarded fast pick with the defining sequential walk:
// on uniform draws and on draws within 1e-12 * total of every prefix
// boundary, where the fast path's margin test decides which method answers.
void expect_fast_pick_matches_walk(const HapParams& params, std::uint64_t seed) {
    Population pop(params);
    RandomStream rng(seed);
    const std::size_t nb = pop.categories();
    std::uint64_t boundary_draws = 0;
    for (int step = 0; step < 400; ++step) {
        // The caller's categories (a service head) sit past the population.
        const double svc = step % 2 == 0 ? 0.0 : 17.0;
        const double total = pop.base_sum() + svc;
        ASSERT_GT(total, 0.0);
        for (int d = 0; d < 200; ++d) {
            const double u = rng.uniform() * total;
            ASSERT_EQ(pop.pick(u, total), pop.walk(u)) << "step " << step << " u " << u;
        }
        // Every prefix boundary, recovered as the walk's cut points.
        double edge = 0.0;
        for (std::size_t k = 0; k < nb; ++k) {
            const std::size_t before = pop.walk(edge);
            double hi = total;
            double lo = edge;
            if (pop.walk(hi) == before) continue;  // no boundary above `edge`
            for (int it = 0; it < 200 && lo < hi; ++it) {
                const double mid = lo + (hi - lo) / 2;
                if (mid <= lo || mid >= hi) break;
                if (pop.walk(mid) == before) lo = mid; else hi = mid;
            }
            // `hi` is the first double the walk places past category `before`.
            for (double f : {0.0, 0.25, 0.5, 0.99, 1.0, 1.01, 1.5, 2.0, 10.0}) {
                for (double sign : {-1.0, 1.0}) {
                    const double u = hi + sign * f * 1e-12 * total;
                    if (u < 0.0 || u >= total) continue;
                    ASSERT_EQ(pop.pick(u, total), pop.walk(u))
                        << "step " << step << " boundary " << k << " offset " << sign * f;
                    ++boundary_draws;
                }
            }
            for (double u : {std::nextafter(hi, 0.0), hi, std::nextafter(hi, total)})
                ASSERT_EQ(pop.pick(u, total), pop.walk(u)) << "step " << step;
            edge = hi;
        }
        // Move to the next state by a population event drawn from the
        // kernel itself (messages leave the population unchanged).
        const std::size_t k = pop.pick(rng.uniform() * pop.base_sum(), pop.base_sum());
        if (k < nb && !Population::is_message(k)) pop.apply(k);
    }
    EXPECT_GT(boundary_draws, 0u);
}

HapParams heterogeneous(std::size_t l) {
    HapParams p;
    p.user_arrival_rate = 0.3;
    p.user_departure_rate = 0.1;
    for (std::size_t i = 0; i < l; ++i) {
        hap::core::ApplicationType a;
        a.arrival_rate = 0.2 + 0.1 * static_cast<double>(i);
        a.departure_rate = 0.5 / (1.0 + static_cast<double>(i));
        for (std::size_t j = 0; j <= i % 3; ++j)
            a.messages.push_back({0.7 + 0.3 * static_cast<double>(j), 20.0, ""});
        p.apps.push_back(a);
    }
    return p;
}

TEST(PopulationKernel, FastPickMatchesSequentialWalk) {
    for (std::size_t l : {1u, 5u, 7u}) {
        SCOPED_TRACE(l);
        expect_fast_pick_matches_walk(heterogeneous(l), 100 + l);
        HapParams bounded = heterogeneous(l);
        bounded.max_users = 3;
        bounded.max_apps = 4;
        expect_fast_pick_matches_walk(bounded, 200 + l);
    }
    HapParams baseline = HapParams::paper_baseline(17.0);
    expect_fast_pick_matches_walk(baseline, 7);
    baseline.max_users = 6;
    baseline.max_apps = 30;
    expect_fast_pick_matches_walk(baseline, 8);
}

// --------------------------------------------------------------------------
// HapSource

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

// HapSource's message rate over `reps` independent replications of
// `horizon`: the replication mean and its standard error.
struct RateEstimate {
    double mean = 0.0;
    double se = 0.0;
};

RateEstimate hap_source_rate(const HapParams& params, double horizon, int reps) {
    std::vector<double> rates;
    for (int r = 0; r < reps; ++r) {
        HapSource src(params);
        RandomStream rng = RandomStream::substream(
            2024, static_cast<std::uint64_t>(r), hap::sim::component_id("hap_source.rate"));
        std::uint64_t n = 0;
        while (src.next(rng) < horizon) ++n;
        rates.push_back(static_cast<double>(n) / horizon);
    }
    RateEstimate e;
    for (double x : rates) e.mean += x;
    e.mean /= static_cast<double>(reps);
    double ss = 0.0;
    for (double x : rates) ss += (x - e.mean) * (x - e.mean);
    e.se = std::sqrt(ss / static_cast<double>(reps - 1) / static_cast<double>(reps));
    return e;
}

// Statistical (ctest label `statistical`): the stream's long-run rate is
// Eq. 4's lambda-bar. Ten replications; the tolerance is four standard
// errors of their mean (a two-sided t_9 test at ~0.3%), and the seeds are
// fixed, so a failure means the dynamics changed.
TEST(HapSourceRate, UnboundedMatchesMeanMessageRate) {
    const HapParams params = HapParams::paper_baseline(17.0);
    const RateEstimate e = hap_source_rate(params, 2e5, 10);
    const double exact = params.mean_message_rate();
    EXPECT_LT(e.se, 0.03 * exact);
    EXPECT_NEAR(e.mean, exact, 4.0 * e.se) << "se " << e.se;
}

// Bounded admission: the rate is the bounded chain's exact pi . lambda
// (the (x, y) box is the whole model), well below the unbounded Eq. 4.
TEST(HapSourceRate, BoundedMatchesExactChainRate) {
    // The paper's baseline with user and application dynamics ten times
    // faster, so each replication spans many user lifetimes.
    HapParams params = HapParams::homogeneous(0.055, 0.01, 0.1, 0.1, 5, 0.1, 3, 17.0);
    params.max_users = 4;
    params.max_apps = 12;
    const hap::core::LumpedChain chain(params, hap::core::ChainBounds::defaults_for(params));
    const std::vector<double> pi = chain.stationary(1e-13).pi;
    double exact = 0.0;
    for (std::size_t s = 0; s < pi.size(); ++s) exact += pi[s] * chain.arrival_rates()[s];
    ASSERT_LT(exact, 0.5 * params.mean_message_rate());

    const RateEstimate e = hap_source_rate(params, 2e4, 10);
    EXPECT_LT(e.se, 0.01 * exact);
    EXPECT_NEAR(e.mean, exact, 4.0 * e.se) << "se " << e.se;
}

}  // namespace
