// Sweep grid parsing and argument validation (experiment/grid.hpp) — the
// layer behind `hapctl sweep --service-grid/--lambda-grid/--reps`.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "experiment/grid.hpp"

namespace {

using hap::experiment::parse_grid;
using hap::experiment::SweepArgs;

TEST(ParseGrid, CommaList) {
    const std::vector<double> g = parse_grid("17,20,25.5");
    ASSERT_EQ(g.size(), 3u);
    EXPECT_DOUBLE_EQ(g[0], 17.0);
    EXPECT_DOUBLE_EQ(g[1], 20.0);
    EXPECT_DOUBLE_EQ(g[2], 25.5);
}

TEST(ParseGrid, SingleValue) {
    const std::vector<double> g = parse_grid("42");
    ASSERT_EQ(g.size(), 1u);
    EXPECT_DOUBLE_EQ(g[0], 42.0);
}

TEST(ParseGrid, RangeInclusiveOfEndpoint) {
    // 0.1 + k*0.1 accumulates roundoff; the endpoint must still be included,
    // and the point count must be exact (no float loop counter).
    const std::vector<double> g = parse_grid("0.1:0.5:0.1");
    ASSERT_EQ(g.size(), 5u);
    EXPECT_DOUBLE_EQ(g.front(), 0.1);
    EXPECT_NEAR(g.back(), 0.5, 1e-12);
}

TEST(ParseGrid, DegenerateRangeIsOnePoint) {
    const std::vector<double> g = parse_grid("2:2:1");
    ASSERT_EQ(g.size(), 1u);
    EXPECT_DOUBLE_EQ(g[0], 2.0);
}

TEST(ParseGrid, RejectsMalformedSpecs) {
    EXPECT_THROW(parse_grid(""), std::invalid_argument);
    EXPECT_THROW(parse_grid("1,,2"), std::invalid_argument);
    EXPECT_THROW(parse_grid("1,"), std::invalid_argument);
    EXPECT_THROW(parse_grid("abc"), std::invalid_argument);
    EXPECT_THROW(parse_grid("1:2"), std::invalid_argument);        // missing step
    EXPECT_THROW(parse_grid("1:2:0"), std::invalid_argument);      // step = 0
    EXPECT_THROW(parse_grid("1:2:-0.5"), std::invalid_argument);   // step < 0
    EXPECT_THROW(parse_grid("5:1:1"), std::invalid_argument);      // hi < lo
    EXPECT_THROW(parse_grid("1:2:3:4"), std::invalid_argument);    // extra field
    EXPECT_THROW(parse_grid("nan,1"), std::invalid_argument);
    EXPECT_THROW(parse_grid("inf"), std::invalid_argument);
    // Point counts past size_t, past double (inf) and past any memory.
    EXPECT_THROW(parse_grid("0:1e20:1"), std::invalid_argument);
    EXPECT_THROW(parse_grid("0:1e300:1e-300"), std::invalid_argument);
    EXPECT_THROW(parse_grid("0:1:1e-17"), std::invalid_argument);
}

SweepArgs good_args() {
    SweepArgs a;
    a.services = {17.0, 20.0};
    a.lambda_scales = {0.5, 1.0};
    a.reps = 4;
    a.horizon = 5e4;
    a.warmup = 1e3;
    return a;
}

TEST(SweepArgs, AcceptsValidArguments) { EXPECT_NO_THROW(good_args().validate()); }

TEST(SweepArgs, RejectsEmptyGrids) {
    SweepArgs a = good_args();
    a.services.clear();
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.lambda_scales.clear();
    EXPECT_THROW(a.validate(), std::invalid_argument);
}

TEST(SweepArgs, RejectsNonPositiveAxisValues) {
    SweepArgs a = good_args();
    a.services = {20.0, 0.0};
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.lambda_scales = {-1.0};
    EXPECT_THROW(a.validate(), std::invalid_argument);
}

TEST(SweepArgs, RejectsBadRepsAndHorizon) {
    SweepArgs a = good_args();
    a.reps = 0;
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.horizon = 0.0;
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.horizon = -5.0;
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.warmup = a.horizon;  // horizon must strictly exceed warmup
    EXPECT_THROW(a.validate(), std::invalid_argument);
    a = good_args();
    a.warmup = -1.0;
    EXPECT_THROW(a.validate(), std::invalid_argument);
}

}  // namespace
