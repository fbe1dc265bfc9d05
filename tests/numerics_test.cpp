// Unit tests for the numerics substrate: matrices/LU, quadrature, roots,
// Laplace transforms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "numerics/laplace.hpp"
#include "numerics/matrix.hpp"
#include "numerics/quadrature.hpp"
#include "numerics/roots.hpp"
#include "sim/rng.hpp"

namespace {

using hap::numerics::ExponentialMixture;
using hap::numerics::integrate;
using hap::numerics::integrate_to_infinity;
using hap::numerics::laplace_transform;
using hap::numerics::LuDecomposition;
using hap::numerics::Matrix;

TEST(Matrix, ConstructAndIndex) {
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 1) = -2.0;
    EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, BraceInitRejectsRagged) {
    EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Product) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, IdentityIsNeutral) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix i = Matrix::identity(2);
    Matrix p = a * i;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(p(r, c), a(r, c));
}

TEST(Matrix, ApplyVector) {
    Matrix a{{1, 2}, {3, 4}};
    const std::vector<double> v{1.0, 1.0};
    const auto out = a.apply(v);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 7.0);
    const auto left = a.apply_left(v);
    EXPECT_DOUBLE_EQ(left[0], 4.0);
    EXPECT_DOUBLE_EQ(left[1], 6.0);
}

TEST(Matrix, TransposeRoundTrip) {
    Matrix a{{1, 2, 3}, {4, 5, 6}};
    Matrix t = a.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Lu, SolvesLinearSystem) {
    Matrix a{{4, 1}, {1, 3}};
    const std::vector<double> b{1.0, 2.0};
    const auto x = hap::numerics::solve(a, b);
    EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
    EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    Matrix a{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
    Matrix inv = hap::numerics::inverse(a);
    Matrix p = a * inv;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(p(r, c), r == c ? 1.0 : 0.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_THROW(LuDecomposition{a}, std::domain_error);
}

// solve(Matrix) runs the vector solve's steps as whole-row axpys over every
// right-hand side; each column must come out bit for bit as solve(column).
void expect_matrix_solve_matches_columns(const LuDecomposition& lu, const Matrix& b) {
    const Matrix x = lu.solve(b);
    ASSERT_EQ(x.rows(), b.rows());
    ASSERT_EQ(x.cols(), b.cols());
    for (std::size_t c = 0; c < b.cols(); ++c) {
        std::vector<double> col(b.rows());
        for (std::size_t r = 0; r < b.rows(); ++r) col[r] = b(r, c);
        const std::vector<double> want = lu.solve(col);
        for (std::size_t r = 0; r < b.rows(); ++r) {
            const double got = x(r, c);
            EXPECT_EQ(std::memcmp(&want[r], &got, sizeof(double)), 0)
                << "row " << r << " col " << c;
        }
    }
}

Matrix seeded_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    hap::sim::RandomStream rng(seed);
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
    return m;
}

TEST(Lu, SolveMatrixBitEqualToColumnSolvesSquare) {
    // A small leading diagonal forces row swaps in the factorization.
    Matrix a = seeded_matrix(9, 9, 11);
    for (std::size_t i = 0; i < 9; ++i) a(i, i) *= 1e-3;
    const LuDecomposition lu(a);
    expect_matrix_solve_matches_columns(lu, seeded_matrix(9, 9, 12));
    expect_matrix_solve_matches_columns(lu, Matrix::identity(9));
}

TEST(Lu, SolveMatrixBitEqualToColumnSolvesRectangular) {
    const LuDecomposition lu(seeded_matrix(7, 7, 21));
    expect_matrix_solve_matches_columns(lu, seeded_matrix(7, 3, 22));
    expect_matrix_solve_matches_columns(lu, seeded_matrix(7, 13, 23));
    expect_matrix_solve_matches_columns(lu, seeded_matrix(7, 1, 24));
}

TEST(Quadrature, PolynomialExact) {
    const double v = integrate([](double x) { return 3.0 * x * x; }, 0.0, 2.0);
    EXPECT_NEAR(v, 8.0, 1e-10);
}

TEST(Quadrature, OscillatoryFunction) {
    const double v = integrate([](double x) { return std::sin(x); }, 0.0, M_PI);
    EXPECT_NEAR(v, 2.0, 1e-9);
}

TEST(Quadrature, ExponentialTail) {
    const double v = integrate_to_infinity([](double t) { return std::exp(-t); });
    EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(Quadrature, GammaLikeIntegral) {
    // int_0^inf t^2 e^{-3t} dt = 2 / 27.
    const double v = integrate_to_infinity(
        [](double t) { return t * t * std::exp(-3.0 * t); });
    EXPECT_NEAR(v, 2.0 / 27.0, 1e-9);
}

TEST(Roots, BrentRejectsBadBracket) {
    const auto r = hap::numerics::brent([](double x) { return x * x + 1.0; }, -1.0, 1.0);
    EXPECT_FALSE(r.has_value());
}

TEST(Roots, BrentFasterSameRoot) {
    const auto r = hap::numerics::brent(
        [](double x) { return std::cos(x) - x; }, 0.0, 1.0);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(std::cos(*r), *r, 1e-10);
}

TEST(Roots, DampedFixedPointConverges) {
    // x = cos(x) has the same Dottie-number fixed point.
    const auto r = hap::numerics::damped_fixed_point(
        [](double x) { return std::cos(x); }, 0.5);
    ASSERT_TRUE(r.has_value());
    EXPECT_NEAR(*r, 0.7390851332151607, 1e-8);
}

TEST(Laplace, ExponentialDensityTransform) {
    // a(t) = 2 e^{-2t} => A*(s) = 2 / (2 + s).
    const double v = laplace_transform(
        [](double t) { return 2.0 * std::exp(-2.0 * t); }, 3.0);
    EXPECT_NEAR(v, 0.4, 1e-8);
}

TEST(ExponentialMixtureTransformAndMoments, Consistent) {
    ExponentialMixture mix;
    mix.weights = {0.3, 0.7};
    mix.rates = {1.0, 5.0};
    EXPECT_NEAR(mix.transform(0.0), 1.0, 1e-12);
    EXPECT_NEAR(mix.mean(), 0.3 / 1.0 + 0.7 / 5.0, 1e-12);
    EXPECT_NEAR(mix.second_moment(), 2 * 0.3 + 2 * 0.7 / 25.0, 1e-12);
    // Transform via quadrature must agree with the closed form.
    const double s = 2.5;
    const double via_quad = laplace_transform([&](double t) { return mix.density(t); }, s);
    EXPECT_NEAR(via_quad, mix.transform(s), 1e-8);
}

TEST(ExponentialMixture, ZeroRateComponentIsDeadMass) {
    ExponentialMixture mix;
    mix.weights = {0.6, 0.4};
    mix.rates = {2.0, 0.0};
    EXPECT_NEAR(mix.transform(1.0), 0.6 * 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(mix.cdf(1e9), 0.6, 1e-9);
}

}  // namespace
