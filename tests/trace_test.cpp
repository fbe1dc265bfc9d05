// Unit tests for the coalescing series recorder.
#include <gtest/gtest.h>

#include <cmath>

#include "trace/recorder.hpp"

namespace {

using hap::trace::SeriesRecorder;

TEST(Recorder, KeepsEverythingAtZeroResolution) {
    SeriesRecorder rec(0.0);
    for (int i = 0; i < 100; ++i) rec.record(i * 0.1, i);
    rec.finish();
    EXPECT_EQ(rec.size(), 100u);
    EXPECT_DOUBLE_EQ(rec.max_value(), 99.0);
}

TEST(Recorder, CoalescesButKeepsPeaks) {
    SeriesRecorder rec(1.0);
    // 1000 points over 10 time units with a spike at t=5.5.
    for (int i = 0; i < 1000; ++i) {
        const double t = i * 0.01;
        const double v = (std::abs(t - 5.5) < 0.005) ? 500.0 : 1.0;
        rec.record(t, v);
    }
    rec.finish();
    EXPECT_LT(rec.size(), 30u);  // heavy coalescing
    EXPECT_DOUBLE_EQ(rec.max_value(), 500.0);
    EXPECT_NEAR(rec.time_of_max(), 5.5, 0.01);
    // The spike must survive in the retained series itself.
    bool found = false;
    for (const auto& p : rec.points()) found |= (p.value == 500.0);
    EXPECT_TRUE(found);
}

TEST(Recorder, MonotoneTimesOut) {
    SeriesRecorder rec(0.5);
    for (int i = 0; i < 100; ++i) rec.record(i * 0.2, i % 7);
    rec.finish();
    for (std::size_t i = 1; i < rec.points().size(); ++i)
        ASSERT_GE(rec.points()[i].time, rec.points()[i - 1].time);
}

}  // namespace
