// Unit tests for the CSR sparse engine: builder semantics (deduplication
// order, bounds, the 32-bit index envelope), transpose layout, and the
// natural-order Gauss-Seidel sweep kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "markov/ctmc.hpp"
#include "markov/sparse.hpp"

namespace {

using hap::markov::Csr;
using hap::markov::CsrBuilder;
using hap::markov::Ctmc;
using hap::markov::gs_sweep_natural;

// ---------------------------------------------------------------- builder --

TEST(CsrBuilder, AssemblesSortedRows) {
    CsrBuilder b;
    b.begin(3, 4);
    b.add(2, 1, 5.0);
    b.add(0, 3, 1.0);
    b.add(0, 0, 2.0);
    b.add(2, 0, 4.0);
    Csr m;
    b.build(m);
    ASSERT_EQ(m.rows, 3u);
    ASSERT_EQ(m.cols, 4u);
    ASSERT_EQ(m.nnz(), 4u);
    const std::vector<std::uint64_t> offsets{0, 2, 2, 4};
    EXPECT_EQ(m.offsets, offsets);
    const std::vector<std::uint32_t> idx{0, 3, 0, 1};
    EXPECT_EQ(m.idx, idx);
    const std::vector<double> val{2.0, 1.0, 4.0, 5.0};
    EXPECT_EQ(m.val, val);
}

TEST(CsrBuilder, DuplicatesSumInInsertionOrder) {
    // Values chosen so the floating-point sum depends on the fold order:
    // (big + 1.0) + -big == 0.0, while big + (1.0 + -big) == 1.0. The
    // builder's stable sort + merge must fold duplicates in add() order.
    const double big = 1e16;
    CsrBuilder b;
    b.begin(2, 2);
    b.add(0, 1, big);
    b.add(0, 0, 7.0);  // interleaved non-duplicate must not disturb the fold
    b.add(0, 1, 1.0);
    b.add(0, 1, -big);
    Csr m;
    b.build(m);
    ASSERT_EQ(m.nnz(), 2u);
    EXPECT_EQ(m.idx[0], 0u);
    EXPECT_EQ(m.val[0], 7.0);
    EXPECT_EQ(m.idx[1], 1u);
    EXPECT_EQ(m.val[1], (big + 1.0) + -big);  // exactly the insertion-order fold
}

TEST(CsrBuilder, HandlesEmptyRowsAndEmptyMatrix) {
    CsrBuilder b;
    b.begin(4, 4);
    b.add(1, 2, 3.0);  // rows 0, 2, 3 stay empty
    Csr m;
    b.build(m);
    const std::vector<std::uint64_t> offsets{0, 0, 1, 1, 1};
    EXPECT_EQ(m.offsets, offsets);
    EXPECT_EQ(m.row(0).count, 0u);
    EXPECT_EQ(m.row(3).count, 0u);

    b.begin(2, 2);  // reuse the builder: all-empty build
    b.build(m);
    EXPECT_EQ(m.rows, 2u);
    EXPECT_EQ(m.nnz(), 0u);
    const std::vector<std::uint64_t> empty_offsets{0, 0, 0};
    EXPECT_EQ(m.offsets, empty_offsets);
}

TEST(CsrBuilder, KeepsSelfLoopsAtMatrixLevel) {
    // The Ctmc wrapper rejects self-transitions, but the raw matrix layer
    // must carry diagonal entries faithfully (e.g. for generator diagonals).
    CsrBuilder b;
    b.begin(2, 2);
    b.add(1, 1, -4.0);
    b.add(1, 1, 1.5);
    Csr m;
    b.build(m);
    ASSERT_EQ(m.nnz(), 1u);
    EXPECT_EQ(m.idx[0], 1u);
    EXPECT_EQ(m.val[0], -4.0 + 1.5);
}

TEST(CsrBuilder, RejectsOversizedDimensionsBeforeAllocating) {
    const std::size_t too_big =
        static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()) + 1;
    CsrBuilder b;
    // Must throw before touching the arenas — allocating offsets for 2^32
    // rows would be a multi-gigabyte request.
    EXPECT_THROW(b.begin(too_big, 4), std::invalid_argument);
    EXPECT_THROW(b.begin(4, too_big), std::invalid_argument);
    EXPECT_FALSE(b.open());
}

TEST(CsrBuilder, RejectsBadAdds) {
    CsrBuilder b;
    EXPECT_THROW(b.add(0, 0, 1.0), std::logic_error);  // no begin() yet
    b.begin(2, 3);
    EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
    EXPECT_THROW(b.add(0, 3, 1.0), std::out_of_range);
    EXPECT_THROW(b.add(0, 0, std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(b.add(0, 0, std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
    Csr m;
    b.build(m);
    EXPECT_THROW(b.add(0, 0, 1.0), std::logic_error);  // closed after build()
}

TEST(CsrBuilder, TransposeRowsAscendBySource) {
    CsrBuilder b;
    b.begin(3, 3);
    b.add(0, 1, 1.0);
    b.add(2, 1, 2.0);
    b.add(1, 0, 3.0);
    b.add(2, 0, 4.0);
    Csr m, t;
    b.build(m);
    b.transpose(m, t);
    ASSERT_EQ(t.rows, 3u);
    ASSERT_EQ(t.nnz(), 4u);
    // Column 0 of m receives from rows 1 and 2; column 1 from rows 0 and 2.
    const std::vector<std::uint64_t> offsets{0, 2, 4, 4};
    EXPECT_EQ(t.offsets, offsets);
    const std::vector<std::uint32_t> idx{1, 2, 0, 2};
    EXPECT_EQ(t.idx, idx);
    const std::vector<double> val{3.0, 4.0, 1.0, 2.0};
    EXPECT_EQ(t.val, val);
}

// ------------------------------------------------------------ sweep kernel --

TEST(GaussSeidel, NaturalSweepKeepsExactFixedPoint) {
    // A sweep from the exact stationary distribution of a two-state chain
    // (pi = [0.75, 0.25]) leaves it in place and reports no change.
    Ctmc c(2);
    c.add_transition(0, 1, 2.0);
    c.add_transition(1, 0, 6.0);
    c.finalize();
    std::vector<double> pi{0.75, 0.25};
    const double r = gs_sweep_natural(c.in_matrix(), c.exit_rates().data(),
                                      pi.data(), true);
    EXPECT_NEAR(r, 0.0, 1e-12);
    EXPECT_NEAR(pi[0], 0.75, 1e-15);
    EXPECT_NEAR(pi[1], 0.25, 1e-15);
}

// -------------------------------------------------------- index envelope --

TEST(Ctmc, RejectsOversizedStateSpace) {
    const std::size_t too_big =
        static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()) + 1;
    EXPECT_THROW(Ctmc c(too_big), std::invalid_argument);
}

}  // namespace
