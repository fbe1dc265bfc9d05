// Unit tests for the observability layer (src/obs): registry semantics under
// concurrency, histogram bucketing and merge, the enabled/disabled contract,
// deterministic snapshot ordering, label scoping, JSON serialization of
// non-finite values, and the converged=false path of an iteration-starved
// G/M/1 sigma solve.
//
// The registry is process-global, so every test runs inside a fixture that
// enables metrics, resets the registry, and restores the disabled default on
// exit — the suite leaves no trace for other tests in the same binary.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "experiment/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "queueing/gm1.hpp"

namespace {

using hap::obs::HistogramData;
using hap::obs::MetricsSnapshot;
using hap::obs::ScopedLabel;
using hap::obs::ScopedTimer;
using hap::obs::SolverTelemetry;

class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        hap::obs::set_enabled(true);
        hap::obs::registry().reset();
    }
    void TearDown() override {
        hap::obs::registry().reset();
        hap::obs::set_enabled(false);
    }
};

TEST_F(ObsTest, CountersAndHistogramsMergeAcrossThreads) {
    // Hammer the registry from the experiment pool (the only sanctioned
    // thread source); totals must equal the single-threaded sums exactly.
    constexpr std::size_t kJobs = 1000;
    const hap::experiment::ExperimentRunner runner(8);
    runner.parallel_for(kJobs, [](std::size_t i) {
        hap::obs::registry().add_counter("obs_test.jobs");
        hap::obs::registry().add_counter("obs_test.weighted", i % 3);
        hap::obs::registry().observe("obs_test.sample",
                                     static_cast<double>(i % 7 + 1));
    });

    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "obs_test.jobs");
    EXPECT_EQ(snap.counters[0].second, kJobs);
    std::uint64_t weighted = 0;
    for (std::size_t i = 0; i < kJobs; ++i) weighted += i % 3;
    EXPECT_EQ(snap.counters[1].second, weighted);

    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistogramData& h = snap.histograms[0].second;
    EXPECT_EQ(h.count, kJobs);
    double sum = 0.0;
    for (std::size_t i = 0; i < kJobs; ++i) sum += static_cast<double>(i % 7 + 1);
    EXPECT_NEAR(h.sum, sum, 1e-9);
    EXPECT_EQ(h.min, 1.0);
    EXPECT_EQ(h.max, 7.0);
}

TEST_F(ObsTest, SolverRecordsSnapshotInCanonicalOrder) {
    // Records arrive in scheduler order; snapshot() must emit them sorted by
    // (label, solver, run_id) so serialized output is thread-count invariant.
    const hap::experiment::ExperimentRunner runner(8);
    runner.parallel_for(16, [](std::size_t i) {
        SolverTelemetry t;
        t.solver = (i % 2 == 0) ? "beta" : "alpha";
        t.label = (i < 8) ? "late" : "early";
        t.run_id = i;
        hap::obs::registry().record_solver(std::move(t));
    });
    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    ASSERT_EQ(snap.solvers.size(), 16u);
    for (std::size_t i = 1; i < snap.solvers.size(); ++i) {
        const SolverTelemetry& a = snap.solvers[i - 1];
        const SolverTelemetry& b = snap.solvers[i];
        EXPECT_LE(std::tie(a.label, a.solver, a.run_id),
                  std::tie(b.label, b.solver, b.run_id));
    }
    EXPECT_EQ(snap.solvers.front().label, "early");
    EXPECT_EQ(snap.solvers.back().label, "late");
}

TEST_F(ObsTest, HistogramBucketsKeepEdgeValuesInside) {
    HistogramData h;
    h.observe(0.0);  // below the smallest edge: bucket 0
    h.observe(HistogramData::bucket_upper(3));   // on-edge: stays in bucket 3
    h.observe(HistogramData::bucket_upper(3) * 1.5);  // just above: bucket 4
    h.observe(1e12);  // beyond the top bound: clamped to the last bucket
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[3], 1u);
    EXPECT_EQ(h.buckets[4], 1u);
    EXPECT_EQ(h.buckets[HistogramData::kBuckets - 1], 1u);
    EXPECT_EQ(h.count, 4u);

    HistogramData other;
    other.observe(HistogramData::bucket_upper(3));
    other.merge(h);
    EXPECT_EQ(other.count, 5u);
    EXPECT_EQ(other.buckets[3], 2u);
    EXPECT_EQ(other.min, 0.0);
    EXPECT_EQ(other.max, 1e12);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
    hap::obs::set_enabled(false);
    hap::obs::registry().add_counter("obs_test.ghost");
    hap::obs::registry().set_gauge("obs_test.ghost_gauge", 1.0);
    hap::obs::registry().observe("obs_test.ghost_hist", 1.0);
    SolverTelemetry t;
    t.solver = "ghost";
    hap::obs::registry().record_solver(std::move(t));

    ScopedTimer timer("obs_test.ghost_s");
    EXPECT_EQ(timer.stop(), 0.0);  // never armed: no clock read, no record

    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.histograms.empty());
    EXPECT_TRUE(snap.solvers.empty());
}

TEST_F(ObsTest, ScopedTimerRecordsWhenEnabled) {
    {
        const ScopedTimer timer("obs_test.timed_s");
        // destructor records
    }
    ScopedTimer timer("obs_test.timed_s");
    EXPECT_GE(timer.stop(), 0.0);
    timer.stop();  // second stop is a no-op, not a double record
    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].first, "obs_test.timed_s");
    EXPECT_EQ(snap.histograms[0].second.count, 2u);
}

TEST_F(ObsTest, ScopedLabelNestsAndTagsRecords) {
    EXPECT_EQ(ScopedLabel::current(), "");
    {
        const ScopedLabel outer("outer");
        EXPECT_EQ(ScopedLabel::current(), "outer");
        {
            const ScopedLabel inner("inner");
            EXPECT_EQ(ScopedLabel::current(), "inner");
            SolverTelemetry t;
            t.solver = "scoped";
            hap::obs::registry().record_solver(std::move(t));
        }
        EXPECT_EQ(ScopedLabel::current(), "outer");
        SolverTelemetry t;
        t.solver = "scoped";
        t.label = "explicit";  // a caller-set label wins over the scope
        hap::obs::registry().record_solver(std::move(t));
    }
    EXPECT_EQ(ScopedLabel::current(), "");
    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    ASSERT_EQ(snap.solvers.size(), 2u);
    EXPECT_EQ(snap.solvers[0].label, "explicit");
    EXPECT_EQ(snap.solvers[1].label, "inner");
}

TEST_F(ObsTest, JsonBlockSerializesNonFiniteAsNull) {
    hap::obs::registry().set_gauge("obs_test.nan", std::nan(""));
    hap::obs::registry().set_gauge("obs_test.inf",
                                   std::numeric_limits<double>::infinity());
    hap::obs::registry().add_counter("obs_test.count", 3);
    hap::obs::registry().observe("obs_test.hist", 0.5);

    const hap::experiment::Json block =
        hap::experiment::obs_metrics_json(hap::obs::registry().snapshot());
    const std::string flat = block.dump(0);
    EXPECT_NE(flat.find("\"schema\":\"hap.obs.metrics/v1\""), std::string::npos);
    EXPECT_NE(flat.find("\"obs_test.nan\":null"), std::string::npos);
    EXPECT_NE(flat.find("\"obs_test.inf\":null"), std::string::npos);
    EXPECT_NE(flat.find("\"obs_test.count\":3"), std::string::npos);
    EXPECT_NE(flat.find("\"count\":1"), std::string::npos);  // the histogram
}

TEST_F(ObsTest, WriterOmitsMetricsBlockUnlessSet) {
    hap::experiment::JsonWriter bare("obs_unit_bench");
    EXPECT_EQ(bare.dump().find("\"metrics\""), std::string::npos);

    hap::obs::registry().add_counter("obs_test.present");
    hap::experiment::JsonWriter with("obs_unit_bench");
    with.metrics_block(
        hap::experiment::obs_metrics_json(hap::obs::registry().snapshot()));
    const std::string text = with.dump();
    EXPECT_NE(text.find("\"metrics\""), std::string::npos);
    EXPECT_NE(text.find("\"obs_test.present\""), std::string::npos);
}

TEST_F(ObsTest, StarvedSigmaIterationRecordsNonConvergence) {
    // A transform that returns NaN defeats both root finders: Brent rejects
    // the bracket without iterating, and the damped fixed point spends its
    // whole 500-iteration budget. The solve must throw AND leave a
    // converged=false record with the iterations it consumed.
    const auto nan_transform = [](double) { return std::nan(""); };
    EXPECT_THROW((void)hap::queueing::solve_gm1(nan_transform, 20.0, 8.0),
                 std::runtime_error);

    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    ASSERT_EQ(snap.solvers.size(), 1u);
    const SolverTelemetry& t = snap.solvers[0];
    EXPECT_EQ(t.solver, "gm1.sigma");
    EXPECT_FALSE(t.converged);
    EXPECT_EQ(t.iterations, 500u);
    EXPECT_GE(t.wall_time_s, 0.0);
}

TEST_F(ObsTest, ResetClearsEverything) {
    hap::obs::registry().add_counter("obs_test.once");
    hap::obs::registry().reset();
    const MetricsSnapshot snap = hap::obs::registry().snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.solvers.empty());
}

}  // namespace
