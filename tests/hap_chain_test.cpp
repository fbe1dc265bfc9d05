// Tests for the modulating-chain builders (Fig. 6/7 lattices) and their
// steady states against the M/M/inf closed forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/hap_chain.hpp"
#include "numerics/matrix.hpp"

namespace {

using hap::core::ChainBounds;
using hap::core::GeneralChain;
using hap::core::HapParams;
using hap::core::LumpedChain;

HapParams small_hap() {
    // Fast mixing, small lattice: a = 2 users, c = 1 app per user.
    return HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 50.0);
}

TEST(ChainBounds, DefaultsRespectAdmissionBounds) {
    HapParams p = HapParams::paper_baseline();
    p.max_users = 12;
    p.max_apps = 60;
    const ChainBounds b = ChainBounds::defaults_for(p);
    EXPECT_EQ(b.max_users, 12u);
    EXPECT_EQ(b.max_apps_total, 60u);
}

TEST(ChainBounds, DefaultsCoverMassForBaseline) {
    const HapParams p = HapParams::paper_baseline();
    const ChainBounds b = ChainBounds::defaults_for(p);
    EXPECT_GT(b.max_users, 20u);       // a = 5.5, needs >> mean
    EXPECT_GT(b.max_apps_total, 100u); // worst-case mean apps is much higher
}

TEST(LumpedChainTest, IndexRoundTrip) {
    const HapParams p = small_hap();
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    for (std::size_t x = chain.x_lo(); x <= chain.x_hi(); x += 3) {
        for (std::size_t y = 0; y <= chain.y_hi(); y += 5) {
            const std::size_t idx = chain.index(x, y);
            EXPECT_EQ(chain.users_of(idx), x);
            EXPECT_EQ(chain.apps_of(idx), y);
        }
    }
    EXPECT_THROW(chain.index(chain.x_hi() + 1, 0), std::out_of_range);
}

TEST(LumpedChainTest, StationaryUserMarginalIsPoisson) {
    const HapParams p = small_hap();
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    const auto res = chain.solve();
    ASSERT_TRUE(res.converged);
    // Marginal of x must be Poisson(a) with a = 2.
    std::vector<double> px(chain.x_hi() + 1, 0.0);
    for (std::size_t s = 0; s < chain.num_states(); ++s)
        px[chain.users_of(s)] += res.pi[s];
    const double a = p.mean_users();
    EXPECT_NEAR(px[0], std::exp(-a), 1e-6);
    EXPECT_NEAR(px[1] / px[0], a, 1e-5);
    EXPECT_NEAR(px[2] / px[1], a / 2.0, 1e-5);
}

TEST(LumpedChainTest, StationaryMeansMatchClosedForm) {
    const HapParams p = small_hap();
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    const auto res = chain.solve();
    ASSERT_TRUE(res.converged);
    double mean_rate = 0.0, mean_x = 0.0, mean_y = 0.0;
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
        mean_rate += res.pi[s] * chain.arrival_rates()[s];
        mean_x += res.pi[s] * static_cast<double>(chain.users_of(s));
        mean_y += res.pi[s] * static_cast<double>(chain.apps_of(s));
    }
    EXPECT_NEAR(mean_x, p.mean_users(), 1e-6);
    EXPECT_NEAR(mean_y, p.mean_apps(), 1e-5);
    EXPECT_NEAR(mean_rate, p.mean_message_rate(), 1e-4);
}

TEST(LumpedChainTest, PinnedUsersHaveNoUserTransitions) {
    const HapParams p = HapParams::two_level(0.5, 0.5, 2.0, 50.0);
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    EXPECT_EQ(chain.x_lo(), 1u);
    EXPECT_EQ(chain.x_hi(), 1u);
    const auto res = chain.solve();
    ASSERT_TRUE(res.converged);
    // y ~ Poisson(1): P(0) = e^{-1}.
    double p0 = 0.0;
    for (std::size_t s = 0; s < chain.num_states(); ++s)
        if (chain.apps_of(s) == 0) p0 += res.pi[s];
    EXPECT_NEAR(p0, std::exp(-1.0), 1e-6);
}

TEST(GeneralChainTest, MatchesLumpedForHomogeneous) {
    // For a homogeneous 2-type HAP the general chain's aggregate statistics
    // must reproduce the lumped chain's.
    const HapParams p = HapParams::homogeneous(0.5, 0.5, 0.3, 0.6, 2, 1.0, 1, 20.0);
    ChainBounds gb;
    gb.max_users = 8;
    gb.max_apps_per_type = 8;
    const GeneralChain general(p, gb);
    ChainBounds lb;
    lb.max_users = 8;
    lb.max_apps_total = 16;
    const LumpedChain lumped(p, lb);

    const auto gres = general.solve();
    const auto lres = lumped.solve();
    ASSERT_TRUE(gres.converged);
    ASSERT_TRUE(lres.converged);

    double g_rate = 0.0, l_rate = 0.0;
    for (std::size_t s = 0; s < general.num_states(); ++s)
        g_rate += gres.pi[s] * general.arrival_rates()[s];
    for (std::size_t s = 0; s < lumped.num_states(); ++s)
        l_rate += lres.pi[s] * lumped.arrival_rates()[s];
    // Per-type caps and the lumped total cap truncate slightly different
    // corners of the lattice, so agreement is to truncation accuracy.
    EXPECT_NEAR(g_rate, l_rate, 5e-4);
    EXPECT_NEAR(g_rate, p.mean_message_rate(), 1e-3);
}

TEST(GeneralChainTest, DecodeRoundTrip) {
    const HapParams p = HapParams::homogeneous(0.5, 0.5, 0.3, 0.6, 2, 1.0, 1, 20.0);
    ChainBounds b;
    b.max_users = 3;
    b.max_apps_per_type = 4;
    const GeneralChain chain(p, b);
    EXPECT_EQ(chain.num_states(), 4u * 5u * 5u);
    const auto coords = chain.decode(chain.num_states() - 1);
    EXPECT_EQ(coords[0], 3u);
    EXPECT_EQ(coords[1], 4u);
    EXPECT_EQ(coords[2], 4u);
}

TEST(GeneralChainTest, RejectsExplodingStateSpace) {
    const HapParams p = HapParams::paper_baseline();
    ChainBounds b;
    b.max_users = 50;
    b.max_apps_per_type = 60;  // 51 * 61^5 states: must refuse
    EXPECT_THROW(GeneralChain(p, b), std::invalid_argument);
}

TEST(DenseGenerator, RowsSumToZero) {
    const HapParams p = small_hap();
    ChainBounds b;
    b.max_users = 6;
    b.max_apps_total = 12;
    const LumpedChain chain(p, b);
    const auto q = chain.dense_generator();
    for (std::size_t i = 0; i < q.rows(); ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < q.cols(); ++j) row += q(i, j);
        EXPECT_NEAR(row, 0.0, 1e-12);
    }
}

TEST(ToMmpp, MeanRateMatchesChain) {
    const HapParams p = small_hap();
    ChainBounds b;
    b.max_users = 8;
    b.max_apps_total = 20;
    const LumpedChain chain(p, b);
    const auto mmpp = chain.to_mmpp();
    EXPECT_NEAR(mmpp.mean_rate(), p.mean_message_rate(), 0.02);
    EXPECT_GT(mmpp.asymptotic_idc(), 1.0);  // HAP is burstier than Poisson
}

TEST(ToMmpp, GeneralChainMeanRateMatchesChain) {
    // Heterogeneous types: the general chain's MMPP carries the chain's
    // stationary rate, which is Eq. 4 up to truncation.
    HapParams p = HapParams::homogeneous(0.5, 0.5, 0.3, 0.6, 2, 1.0, 1, 20.0);
    p.apps[1].arrival_rate = 0.2;
    p.apps[1].departure_rate = 0.8;
    p.apps[1].messages[0].arrival_rate = 3.0;
    ASSERT_FALSE(p.homogeneous_types());
    ChainBounds b;
    b.max_users = 8;
    b.max_apps_per_type = 8;
    const GeneralChain chain(p, b);
    const auto res = chain.solve();
    ASSERT_TRUE(res.converged);
    double rate = 0.0;
    for (std::size_t s = 0; s < chain.num_states(); ++s)
        rate += res.pi[s] * chain.arrival_rates()[s];
    const auto mmpp = chain.to_mmpp();
    EXPECT_NEAR(mmpp.mean_rate(), rate, 1e-8);
    EXPECT_NEAR(mmpp.mean_rate(), p.mean_message_rate(), 1e-3);
}

TEST(LumpedChainTest, DirectSolveMatchesIterative) {
    // Block-tridiagonal elimination and Gauss-Seidel must agree state by
    // state — the direct path is exact, the iterative one converged to
    // 1e-12, so 1e-9 absolute is generous.
    const HapParams p = small_hap();
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    const auto direct = chain.solve_direct();
    ASSERT_EQ(direct.size(), chain.num_states());
    const auto iter = chain.solve();
    ASSERT_TRUE(iter.converged);
    double mass = 0.0;
    for (std::size_t s = 0; s < chain.num_states(); ++s) {
        EXPECT_NEAR(direct[s], iter.pi[s], 1e-9);
        mass += direct[s];
    }
    EXPECT_NEAR(mass, 1.0, 1e-12);
}

TEST(LumpedChainTest, DirectSolveMatchesIterativeForPinnedUsers) {
    // Degenerate shape (x_lo == x_hi): one user level, so the levels run
    // along y with 1 x 1 blocks.
    const HapParams p = HapParams::two_level(0.5, 0.5, 2.0, 50.0);
    const LumpedChain chain(p, ChainBounds::defaults_for(p));
    const auto direct = chain.solve_direct();
    ASSERT_EQ(direct.size(), chain.num_states());
    const auto iter = chain.solve();
    ASSERT_TRUE(iter.converged);
    for (std::size_t s = 0; s < chain.num_states(); ++s)
        EXPECT_NEAR(direct[s], iter.pi[s], 1e-9);
}

// Test oracle: solve_direct's censoring in its dense form, A0, A1 and A2 as
// full blocks and R = A0 (-S)^-1, S = A1 + R A2 as matrix products, with
// levels along the same axis: y (positions x) when nx < ny, otherwise x.
std::vector<double> dense_direct_solve(const LumpedChain& chain) {
    using hap::numerics::Matrix;
    const hap::markov::Ctmc& ctmc = chain.ctmc();
    const std::size_t nx = chain.x_hi() - chain.x_lo() + 1;
    const std::size_t ny = chain.y_hi() + 1;
    const bool by_apps = nx < ny;
    const std::size_t nlev = by_apps ? ny : nx;
    const std::size_t npos = by_apps ? nx : ny;
    const auto level_of = [&](std::size_t st) { return by_apps ? st % ny : st / ny; };
    const auto pos_of = [&](std::size_t st) { return by_apps ? st / ny : st % ny; };
    const auto state = [&](std::size_t lev, std::size_t p) {
        return by_apps ? p * ny + lev : lev * ny + p;
    };
    std::vector<Matrix> a0(nlev), a1(nlev), a2(nlev);
    for (std::size_t lev = 0; lev < nlev; ++lev) {
        a1[lev] = Matrix(npos, npos, 0.0);
        if (lev + 1 < nlev) a0[lev] = Matrix(npos, npos, 0.0);
        if (lev > 0) a2[lev] = Matrix(npos, npos, 0.0);
    }
    for (std::size_t from = 0; from < ctmc.num_states(); ++from) {
        const hap::markov::Ctmc::OutEdges out = ctmc.out_edges(from);
        const std::size_t lf = level_of(from);
        const std::size_t pf = pos_of(from);
        for (std::size_t e = 0; e < out.count; ++e) {
            const std::size_t lt = level_of(out.to[e]);
            const std::size_t pt = pos_of(out.to[e]);
            Matrix& block = lt == lf ? a1[lf] : lt == lf + 1 ? a0[lf] : a2[lf];
            block(pf, pt) += out.rate[e];
        }
    }
    for (std::size_t lev = 0; lev < nlev; ++lev)
        for (std::size_t p = 0; p < npos; ++p) a1[lev](p, p) -= ctmc.exit_rate(state(lev, p));

    std::vector<Matrix> rmat(nlev);
    Matrix s = a1[nlev - 1];
    for (std::size_t lev = nlev - 1; lev-- > 0;) {
        rmat[lev] = a0[lev] * hap::numerics::inverse(s * -1.0);
        s = a1[lev] + rmat[lev] * a2[lev + 1];
    }
    Matrix m = s.transposed();
    for (std::size_t j = 0; j < npos; ++j) m(npos - 1, j) = 1.0;
    std::vector<double> rhs(npos, 0.0);
    rhs[npos - 1] = 1.0;
    std::vector<double> level = hap::numerics::solve(m, rhs);
    std::vector<double> pi(ctmc.num_states(), 0.0);
    for (std::size_t lev = 0; lev < nlev; ++lev) {
        if (lev > 0) level = rmat[lev - 1].apply_left(level);
        for (std::size_t p = 0; p < npos; ++p) pi[state(lev, p)] = level[p];
    }
    double total = 0.0;
    for (double& v : pi) {
        if (v < 0.0) v = 0.0;
        total += v;
    }
    for (double& v : pi) v /= total;
    return pi;
}

void expect_direct_solve_bit_equal(const LumpedChain& chain) {
    const std::vector<double> got = chain.solve_direct();
    const std::vector<double> want = dense_direct_solve(chain);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
}

TEST(LumpedChainTest, DirectSolveBitEqualToDenseOracle) {
    // 13 x 41 states (levels along y) and 41 x 13 (levels along x): 13 x 13
    // blocks either way.
    const HapParams p = HapParams::paper_baseline(20.0);
    ChainBounds b;
    b.max_users = 12;
    b.max_apps_total = 40;
    expect_direct_solve_bit_equal(LumpedChain(p, b));
    b.max_users = 40;
    b.max_apps_total = 12;
    expect_direct_solve_bit_equal(LumpedChain(p, b));
}

TEST(LumpedChainTest, DirectSolveBitEqualToDenseOraclePinnedUsers) {
    // One user level: levels along y, 1 x 1 blocks.
    const HapParams p = HapParams::two_level(0.1, 0.01, 0.1, 4.0);
    expect_direct_solve_bit_equal(LumpedChain(p, ChainBounds::defaults_for(p)));
}

TEST(LumpedChainTest, DirectSolveBitEqualToDenseOracleUserBound) {
    HapParams p = small_hap();
    p.max_users = 4;
    expect_direct_solve_bit_equal(LumpedChain(p, ChainBounds::defaults_for(p)));
}

// Elimination-order-free oracle: Grassmann-Taksar-Heyman state reduction of
// the dense rate matrix in long double. It never subtracts, so it has no
// cancellation error, and its order of elimination (states n-1 down to 1)
// is unrelated to solve_direct's levels.
std::vector<double> gth_stationary(const LumpedChain& chain) {
    const hap::markov::Ctmc& ctmc = chain.ctmc();
    const std::size_t n = ctmc.num_states();
    std::vector<long double> a(n * n, 0.0L);  // off-diagonal rates, row-major
    for (std::size_t from = 0; from < n; ++from) {
        const hap::markov::Ctmc::OutEdges out = ctmc.out_edges(from);
        for (std::size_t e = 0; e < out.count; ++e)
            if (out.to[e] != from) a[from * n + out.to[e]] += out.rate[e];
    }
    for (std::size_t k = n; k-- > 1;) {
        long double exit = 0.0L;
        for (std::size_t j = 0; j < k; ++j) exit += a[k * n + j];
        for (std::size_t i = 0; i < k; ++i) {
            const long double f = a[i * n + k] / exit;
            a[i * n + k] = f;
            if (f == 0.0L) continue;
            for (std::size_t j = 0; j < k; ++j) a[i * n + j] += f * a[k * n + j];
        }
    }
    std::vector<long double> x(n, 0.0L);
    x[0] = 1.0L;
    long double total = 1.0L;
    for (std::size_t j = 1; j < n; ++j) {
        for (std::size_t i = 0; i < j; ++i) x[j] += x[i] * a[i * n + j];
        total += x[j];
    }
    std::vector<double> pi(n);
    for (std::size_t s = 0; s < n; ++s) pi[s] = static_cast<double>(x[s] / total);
    return pi;
}

void expect_direct_solve_matches_gth(const LumpedChain& chain) {
    ASSERT_LE(chain.num_states(), 300u);  // dense O(n^3) oracle: keep it fast
    const std::vector<double> got = chain.solve_direct();
    const std::vector<double> want = gth_stationary(chain);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s) EXPECT_NEAR(got[s], want[s], 1e-14) << s;
}

TEST(LumpedChainTest, DirectSolveMatchesGthOracle) {
    ChainBounds b;
    b.max_users = 5;  // 6 x 41 states: levels along y
    b.max_apps_total = 40;
    expect_direct_solve_matches_gth(LumpedChain(HapParams::paper_baseline(20.0), b));
    b.max_users = 20;  // 21 x 10 states: levels along x
    b.max_apps_total = 9;
    expect_direct_solve_matches_gth(LumpedChain(small_hap(), b));
    // One user level: levels along y, 1 x 1 blocks.
    const HapParams pinned = HapParams::two_level(0.5, 0.5, 2.0, 50.0);
    expect_direct_solve_matches_gth(LumpedChain(pinned, ChainBounds::defaults_for(pinned)));
}

}  // namespace
