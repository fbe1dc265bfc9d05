// Dedicated tests for the Solution 0 solver (line relaxation + marginal
// projection on the (x, y, z) lattice).
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/hap.hpp"
#include "core/lattice_sweep.hpp"
#include "experiment/analytic.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/team.hpp"
#include "sim/rng.hpp"

namespace {

using namespace hap::core;
using detail::LatticeGrid;
using detail::LatticeRates;

HapParams small_hap(double mu2 = 10.0) {
    return HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, mu2);
}

// Test oracle: the lexicographic line Gauss-Seidel sweep the wavefront
// kernel replaced. Its source left multiply-add contraction to the compiler;
// the std::fma calls mark where the shipped build (GCC, -O3 -march=native,
// default -ffp-contract=fast) fused, and this file is compiled with
// -ffp-contract=off, so the oracle pins those bytes under any compiler.
// sweep_lattice must reproduce them exactly.
void reference_sweep(const LatticeGrid& g, const LatticeRates& r, std::vector<double>& pi,
                     bool forward) {
    std::vector<double> cp(g.nz), rhs(g.nz);
    const std::size_t xy_stride = g.ny * g.nz;
    for (std::size_t xi = 0; xi < g.nx; ++xi) {
        const std::size_t x = g.x_lo + (forward ? xi : g.nx - 1 - xi);
        const double xd = static_cast<double>(x);
        const std::size_t xoff = (x - g.x_lo) * xy_stride;
        for (std::size_t yi = 0; yi < g.ny; ++yi) {
            const std::size_t y = forward ? yi : g.ny - 1 - yi;
            const double yd = static_cast<double>(y);
            const double arr = yd * r.beta;

            double* cur = pi.data() + xoff + y * g.nz;
            const double* xlo = x > g.x_lo ? cur - xy_stride : nullptr;
            const double* xhi = x < g.x_hi ? cur + xy_stride : nullptr;
            const double* ylo = y > 0 ? cur - g.nz : nullptr;
            const double* yhi = y < g.y_hi ? cur + g.nz : nullptr;

            const double w_xlo = r.lambda;
            const double w_xhi = (xd + 1.0) * r.mu;
            const double w_ylo = xd * r.alpha;
            const double w_yhi = (yd + 1.0) * r.mu1;
            double out_base = yd * r.mu1;
            if (r.dynamic_users) {
                if (x < g.x_hi) out_base += r.lambda;
                out_base = std::fma(xd, r.mu, out_base);
            }
            if (y < g.y_hi) out_base += w_ylo;

            for (std::size_t z = 0; z < g.nz; ++z) {
                double s = 0.0;
                if (xlo) s = std::fma(w_xlo, xlo[z], s);
                if (xhi) s = std::fma(w_xhi, xhi[z], s);
                if (ylo) s = std::fma(w_ylo, ylo[z], s);
                if (yhi) s = std::fma(w_yhi, yhi[z], s);
                rhs[z] = s;
            }

            double b0 = out_base + (g.z_hi > 0 ? arr : 0.0);
            if (b0 <= 0.0) b0 = 1.0;
            cp[0] = -r.mu2 / b0;
            rhs[0] /= b0;
            for (std::size_t z = 1; z < g.nz; ++z) {
                const double a = -arr;
                double b = out_base + r.mu2 + (z < g.z_hi ? arr : 0.0);
                const double denom = std::fma(-a, cp[z - 1], b);
                const double c = (z < g.z_hi) ? -r.mu2 : 0.0;
                cp[z] = c / denom;
                rhs[z] = std::fma(-a, rhs[z - 1], rhs[z]) / denom;
            }
            cur[g.nz - 1] = rhs[g.nz - 1];
            for (std::size_t z = g.nz - 1; z-- > 0;)
                cur[z] = std::fma(-cp[z], cur[z + 1], rhs[z]);
        }
    }
}

struct Box {
    std::size_t x_lo, x_hi, y_hi, z_hi;
};

// Six sweeps in each direction, alternating as solve_solution0 does, from the
// same seeded positive lattice through both kernels: identical bytes.
void expect_sweeps_identical(const Box& b, bool dynamic_users) {
    const LatticeGrid g = detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
    const LatticeRates r{dynamic_users, 0.4, 0.2, 0.5, 0.5, 2.0, 10.0};
    hap::sim::RandomStream rng(0x5eed0000 + g.size());
    std::vector<double> want(g.size());
    for (double& v : want) v = rng.uniform(0.1, 1.0);
    std::vector<double> got = want;
    detail::LineWorkspace ws;
    for (int s = 1; s <= 12; ++s) {
        reference_sweep(g, r, want, s % 2 == 1);
        detail::sweep_lattice(g, r, got, s % 2 == 1, ws);
    }
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0)
        << "box x " << b.x_lo << ".." << b.x_hi << " y_hi " << b.y_hi << " z_hi " << b.z_hi;
}

TEST(LatticeSweep, WavefrontMatchesLexicographicPinnedUsers) {
    // nx = 1: every anti-diagonal holds a single line.
    for (std::size_t z_hi : {0, 1, 30, 300}) expect_sweeps_identical({3, 3, 7, z_hi}, false);
}

TEST(LatticeSweep, WavefrontMatchesLexicographicSingleApp) {
    // ny = 1, and the x_hi = 0 box whose (0, 0) line is an isolated state.
    expect_sweeps_identical({0, 5, 0, 31}, true);
    expect_sweeps_identical({0, 0, 5, 10}, true);
}

TEST(LatticeSweep, WavefrontMatchesLexicographicQueueLengths) {
    for (std::size_t z_hi : {0, 1, 30, 300}) expect_sweeps_identical({0, 9, 12, z_hi}, true);
}

TEST(LatticeSweep, WavefrontMatchesLexicographicWideAndTall) {
    // nx > ny and ny > nx; the longest anti-diagonals (13 and 21 lines) are
    // not multiples of the lane width.
    expect_sweeps_identical({0, 20, 12, 30}, true);
    expect_sweeps_identical({0, 3, 25, 30}, true);
    expect_sweeps_identical({0, 25, 20, 12}, true);
}

// Test oracle: the per-state observables pass measure_lattice replaced, which
// tests every face on every state. measure_lattice hoists those tests to the
// line and must reproduce every accumulator bit for bit.
detail::LatticeObservables reference_measure(const LatticeGrid& g, const LatticeRates& r,
                                             detail::TruncationCuts cuts,
                                             const std::vector<double>& pi) {
    detail::LatticeObservables o;
    for (std::size_t x = g.x_lo; x <= g.x_hi; ++x) {
        for (std::size_t y = 0; y <= g.y_hi; ++y) {
            const double arr = static_cast<double>(y) * r.beta;
            for (std::size_t z = 0; z <= g.z_hi; ++z) {
                const double p = pi[g.idx(x, y, z)];
                o.mean_z = std::fma(p, static_cast<double>(z), o.mean_z);
                o.mean_x += p * static_cast<double>(x);
                o.mean_y += p * static_cast<double>(y);
                if (z > 0) o.busy += p;
                if (z < g.z_hi) {
                    o.throughput = std::fma(p, arr, o.throughput);
                    o.sigma_den = std::fma(p, arr, o.sigma_den);
                    if (z > 0) o.sigma_num = std::fma(p, arr, o.sigma_num);
                }
                if ((cuts.x && x == g.x_hi) || (cuts.y && y == g.y_hi) || z == g.z_hi)
                    o.boundary += p;
                if (y == g.y_hi) o.boundary_y += p;
                if (z == g.z_hi) o.boundary_z += p;
            }
        }
    }
    return o;
}

void expect_measure_identical(const Box& b) {
    const LatticeGrid g = detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
    const LatticeRates r{b.x_lo != b.x_hi, 0.4, 0.2, 0.5, 0.5, 2.0, 10.0};
    hap::sim::RandomStream rng(0x0b5e0000 + g.size());
    std::vector<double> pi(g.size());
    for (double& v : pi) v = rng.uniform(0.0, 1e-3);
    for (const bool cx : {false, true}) {
        for (const bool cy : {false, true}) {
            const detail::TruncationCuts cuts{cx, cy};
            const detail::LatticeObservables want = reference_measure(g, r, cuts, pi);
            const detail::LatticeObservables got = detail::measure_lattice(g, r, cuts, pi);
            EXPECT_EQ(std::memcmp(&want, &got, sizeof(want)), 0)
                << "box x " << b.x_lo << ".." << b.x_hi << " y_hi " << b.y_hi << " z_hi "
                << b.z_hi << " cuts x " << cx << " y " << cy;
        }
    }
}

TEST(LatticeSweep, MeasureBitEqualToBranchyOracle) {
    for (std::size_t z_hi : {0, 1, 30, 300}) {
        expect_measure_identical({0, 9, 12, z_hi});
        expect_measure_identical({3, 3, 7, z_hi});  // pinned users, nx = 1
    }
    expect_measure_identical({0, 20, 50, 64});  // a sweep_analytic-sized box
}

// Test oracle: the one-line-at-a-time marginal projection that
// project_marginal replaced. project_marginal must reproduce it bit for bit.
void reference_project(const LatticeGrid& g, const std::vector<double>& marginal,
                       std::vector<double>& pi) {
    for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
        double* cur = pi.data() + line * g.nz;
        double total = 0.0;
        for (std::size_t z = 0; z < g.nz; ++z) total += cur[z];
        const double target = marginal[line];
        if (total > 0.0) {
            const double f = target / total;
            for (std::size_t z = 0; z < g.nz; ++z) cur[z] *= f;
        } else {
            for (std::size_t z = 0; z < g.nz; ++z) cur[z] = 0.0;
            cur[0] = target;
        }
    }
}

void expect_projection_identical(const Box& b) {
    const LatticeGrid g = detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
    hap::sim::RandomStream rng(0x9e0c0000 + g.size());
    std::vector<double> want(g.size());
    for (double& v : want) v = rng.uniform(0.0, 1e-3);
    // An all-zero line takes the no-mass branch; put it both inside a group
    // of eight lines and in the tail.
    const std::size_t lines = g.nx * g.ny;
    for (const std::size_t line : {std::size_t{1}, lines - 1})
        std::fill_n(want.begin() + static_cast<std::ptrdiff_t>(line * g.nz), g.nz, 0.0);
    std::vector<double> marginal(lines);
    for (double& m : marginal) m = rng.uniform(0.0, 1.0) / static_cast<double>(lines);
    std::vector<double> got = want;
    reference_project(g, marginal, want);
    detail::project_marginal(g, marginal, got);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0)
        << "box x " << b.x_lo << ".." << b.x_hi << " y_hi " << b.y_hi << " z_hi " << b.z_hi;
}

TEST(LatticeSweep, ProjectMarginalBitEqualToPerLineOracle) {
    for (std::size_t z_hi : {0, 1, 30, 128}) {
        expect_projection_identical({0, 20, 50, z_hi});  // 1,071 lines: 133 groups + 7
        expect_projection_identical({3, 3, 7, z_hi});    // 8 lines: one group, no tail
        expect_projection_identical({0, 1, 2, z_hi});    // 6 lines: tail only
    }
}

// Six sweeps each way, each followed by the marginal projection, through the
// team sweep at a forced block count and through the serial pair
// sweep_lattice + project_marginal: identical bytes.
void expect_team_sweep_identical(const Box& b, std::size_t blocks,
                                 hap::parallel::TeamLease& lease) {
    const LatticeGrid g = detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
    const LatticeRates r{b.x_lo != b.x_hi, 0.4, 0.2, 0.5, 0.5, 2.0, 10.0};
    hap::sim::RandomStream rng(0x7ea40000 + g.size());
    std::vector<double> want(g.size());
    for (double& v : want) v = rng.uniform(0.1, 1.0);
    std::vector<double> marginal(g.nx * g.ny);
    for (double& m : marginal) m = rng.uniform(0.0, 1.0) / static_cast<double>(marginal.size());
    std::vector<double> got = want;
    detail::LineWorkspace ws;
    detail::TeamSweep team;
    team.lease = &lease;
    for (int s = 1; s <= 12; ++s) {
        detail::sweep_lattice(g, r, want, s % 2 == 1, ws);
        detail::project_marginal(g, marginal, want);
        detail::sweep_and_project(g, r, marginal, got, s % 2 == 1, blocks, team);
    }
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0)
        << blocks << " blocks, box x " << b.x_lo << ".." << b.x_hi << " y_hi " << b.y_hi
        << " z_hi " << b.z_hi;
}

TEST(LatticeSweep, TeamSweepBitEqualToSerial) {
    // Holds the team when it is free; with an empty lease, or fewer threads
    // than blocks, the blocks share the threads there are.
    hap::parallel::TeamLease lease;
    for (std::size_t blocks = 1; blocks <= 4; ++blocks) {
        for (std::size_t z_hi : {0, 1, 64}) {
            expect_team_sweep_identical({3, 3, 7, z_hi}, blocks, lease);   // nx = 1
            expect_team_sweep_identical({0, 2, 9, z_hi}, blocks, lease);   // nx = 3 < 4
            expect_team_sweep_identical({0, 10, 12, z_hi}, blocks, lease); // nx = 11: uneven
            expect_team_sweep_identical({0, 9, 0, z_hi}, blocks, lease);   // ny = 1
        }
        expect_team_sweep_identical({0, 20, 50, 64}, blocks, lease);  // a sweep_analytic box
        expect_team_sweep_identical({0, 29, 154, 30}, blocks, lease); // a hapd box
    }
}

// E[z] and the throughput of `pi` summed in long double: a reference whose
// own rounding is far below double's.
detail::CheckMoments exact_moments(const LatticeGrid& g, const LatticeRates& r,
                                   const std::vector<double>& pi) {
    long double mean_z = 0.0L;
    long double throughput = 0.0L;
    for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
        const long double arr = static_cast<long double>(line % g.ny) * r.beta;
        for (std::size_t z = 0; z < g.nz; ++z) {
            const long double p = pi[line * g.nz + z];
            mean_z += p * static_cast<long double>(z);
            if (z < g.z_hi) throughput += p * arr;
        }
    }
    return {static_cast<double>(mean_z), static_cast<double>(throughput)};
}

// The line moments a team sweep's projection leaves behind are the same
// bytes at every block count. The check's (E[z], throughput) summed from
// them are within 1e-14 of the exact sums, and so of measure_lattice's up to
// that pass's own rounding: its one running sum over a flat 70k-state
// lattice is 1.6e-14 off the exact E[z].
void expect_moments_identical(const Box& b, hap::parallel::TeamLease& lease) {
    const LatticeGrid g = detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
    const LatticeRates r{b.x_lo != b.x_hi, 0.4, 0.2, 0.5, 0.5, 2.0, 10.0};
    hap::sim::RandomStream rng(0x40e70000 + g.size());
    std::vector<double> seed(g.size());
    for (double& v : seed) v = rng.uniform(0.1, 1.0);
    std::vector<double> marginal(g.nx * g.ny);
    for (double& m : marginal) m = rng.uniform(0.0, 1.0) / static_cast<double>(marginal.size());
    detail::LineMoments want;
    for (std::size_t blocks = 1; blocks <= g.nx; ++blocks) {
        std::vector<double> pi = seed;
        detail::TeamSweep team;
        team.lease = &lease;
        for (int s = 1; s <= 4; ++s)
            detail::sweep_and_project(g, r, marginal, pi, s % 2 == 1, blocks, team);
        ASSERT_EQ(team.moments.z.size(), g.nx * g.ny);
        ASSERT_EQ(team.moments.open.size(), g.nx * g.ny);
        if (blocks > 1) {
            EXPECT_EQ(std::memcmp(want.z.data(), team.moments.z.data(),
                                  want.z.size() * sizeof(double)),
                      0)
                << blocks << " blocks, z_hi " << b.z_hi;
            EXPECT_EQ(std::memcmp(want.open.data(), team.moments.open.data(),
                                  want.open.size() * sizeof(double)),
                      0)
                << blocks << " blocks, z_hi " << b.z_hi;
            continue;
        }
        want = team.moments;
        const detail::CheckMoments got = detail::sum_line_moments(g, r, team.moments);
        const detail::CheckMoments exact = exact_moments(g, r, pi);
        const detail::LatticeObservables o = detail::measure_lattice(g, r, {true, true}, pi);
        EXPECT_NEAR(got.mean_z, exact.mean_z, 1e-14 * exact.mean_z) << "z_hi " << b.z_hi;
        EXPECT_NEAR(got.throughput, exact.throughput, 1e-14 * exact.throughput)
            << "z_hi " << b.z_hi;
        EXPECT_NEAR(got.mean_z, o.mean_z, 1e-13 * o.mean_z) << "z_hi " << b.z_hi;
        EXPECT_NEAR(got.throughput, o.throughput, 1e-13 * o.throughput) << "z_hi " << b.z_hi;
    }
}

TEST(LatticeSweep, ProjectionMomentsEqualAtEveryBlockCount) {
    hap::parallel::TeamLease lease;
    for (std::size_t z_hi : {0, 1, 64}) {
        expect_moments_identical({0, 10, 12, z_hi}, lease);  // nx = 11: blocks 1..11
        expect_moments_identical({3, 3, 7, z_hi}, lease);    // nx = 1
    }
    expect_moments_identical({0, 20, 50, 64}, lease);  // a sweep_analytic box
}

// The serial seed the team seed pass replaced, its oracle: each state
// zero-padded / cropped onto the box, one clamped secant step over every
// cell, then the marginal projection. The std::fma marks the multiply-add
// the shipped build (GCC, -O3 -march=native) fuses.
void reference_remap(const std::vector<double>& src, const LatticeGrid& from,
                     const LatticeGrid& to, std::vector<double>& dst) {
    dst.assign(to.size(), 0.0);
    const std::size_t y1 = std::min(from.y_hi, to.y_hi);
    const std::size_t z1 = std::min(from.z_hi, to.z_hi);
    const std::size_t x1 = std::min(from.x_hi, to.x_hi);
    for (std::size_t x = std::max(from.x_lo, to.x_lo); x <= x1; ++x)
        for (std::size_t y = 0; y <= y1; ++y)
            for (std::size_t z = 0; z <= z1; ++z)
                dst[to.idx(x, y, z)] = src[from.idx(x, y, z)];
}

// A lattice on box `b` with values in [0, 1): some cells of one state
// below the other's, so the secant step clamps.
std::vector<double> random_state(const LatticeGrid& b, std::uint64_t seed) {
    hap::sim::RandomStream rng(seed);
    std::vector<double> pi(b.size());
    for (double& v : pi) v = rng.uniform(0.0, 1.0);
    return pi;
}

struct SeedCase {
    Box warm;      // the warm state's box; z_hi = 0 with x_hi < x_lo: cold start
    Box prev;      // the secant's earlier state; x_hi < x_lo: none
    Box first;     // the box the seed is laid out on first
    Box target;    // the box it is laid out on at last (first, grown in y or z)
    double theta;
};

LatticeGrid grid_of(const Box& b) {
    return detail::make_lattice_grid(b.x_lo, b.x_hi, b.y_hi, b.z_hi);
}

// The seed of `c` and its projection, through seed_lattice and the team
// projection at every thread count the lease has (beside a side job at
// every other count) and through the serial oracle: identical lattices and
// line moments.
void expect_seed_identical(const SeedCase& c, hap::parallel::TeamLease& lease) {
    const bool cold = c.warm.x_hi < c.warm.x_lo;
    const bool secant = !cold && c.prev.x_hi >= c.prev.x_lo;
    const LatticeGrid first = grid_of(c.first);
    const LatticeGrid g = grid_of(c.target);
    detail::LatticeSeed seed;
    seed.sigma = 0.7;
    std::vector<double> warm, prev;
    std::vector<double> want;
    if (cold) {
        want.resize(g.size());
        for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
            double zt = 1.0;
            for (std::size_t z = 0; z < g.nz; ++z) {
                want[line * g.nz + z] = zt;
                zt *= seed.sigma;
            }
        }
    } else {
        seed.warm_box = grid_of(c.warm);
        warm = random_state(seed.warm_box, 0x5eedu + seed.warm_box.size());
        seed.warm = &warm;
        seed.box = first;
        std::vector<double> on_first;
        reference_remap(warm, seed.warm_box, first, on_first);
        if (secant) {
            seed.prev_box = grid_of(c.prev);
            prev = random_state(seed.prev_box, 0x9e11u + seed.prev_box.size());
            seed.prev = &prev;
            seed.theta = c.theta;
            std::vector<double> p;
            reference_remap(prev, seed.prev_box, first, p);
            for (std::size_t i = 0; i < on_first.size(); ++i) {
                const double w = on_first[i];
                on_first[i] = std::max(0.0, std::fma(c.theta, w - p[i], w));
            }
        }
        reference_remap(on_first, first, g, want);
    }
    hap::sim::RandomStream rng(0x3a4u + g.size());
    std::vector<double> marginal(g.nx * g.ny);
    for (double& m : marginal) m = rng.uniform(0.0, 1.0) / static_cast<double>(marginal.size());
    detail::LineMoments want_moments;
    detail::project_marginal(g, marginal, want, &want_moments);

    for (std::size_t threads = 1; threads <= lease.threads(); ++threads) {
        std::vector<double> got;
        int beside_runs = 0;
        auto beside = [&] { ++beside_runs; };
        if (threads % 2 == 0)
            detail::seed_lattice(g, seed, got, threads, &lease, beside);
        else
            detail::seed_lattice(g, seed, got, threads, &lease);
        EXPECT_EQ(beside_runs, threads % 2 == 0 ? 1 : 0);
        detail::TeamSweep team;
        team.lease = &lease;
        detail::project_marginal(g, marginal, got, threads, team);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0)
            << threads << " threads, target x " << c.target.x_lo << ".." << c.target.x_hi
            << " y_hi " << c.target.y_hi << " z_hi " << c.target.z_hi;
        EXPECT_EQ(std::memcmp(want_moments.z.data(), team.moments.z.data(),
                              want_moments.z.size() * sizeof(double)),
                  0)
            << threads << " threads";
        EXPECT_EQ(std::memcmp(want_moments.open.data(), team.moments.open.data(),
                              want_moments.open.size() * sizeof(double)),
                  0)
            << threads << " threads";
    }
}

TEST(LatticeSeed, TeamSeedBitEqualToSerialSeed) {
    hap::parallel::TeamLease lease;
    const Box none{1, 0, 0, 0};
    const Box box{0, 20, 50, 64};  // a sweep_analytic box
    // Warm: the neighbor's box, and boxes that crop and pad it in x, y, z.
    expect_seed_identical({box, none, box, box, 0.0}, lease);
    expect_seed_identical({{0, 24, 40, 80}, none, box, box, 0.0}, lease);
    expect_seed_identical({{2, 18, 60, 30}, none, box, box, 0.0}, lease);
    // Secant: equal boxes, then a previous state on a box of its own.
    // A theta that is not a power of two rounds the product on its own.
    expect_seed_identical({box, box, box, box, 1.0}, lease);
    expect_seed_identical({box, box, box, box, 1.3}, lease);
    expect_seed_identical({box, {0, 22, 45, 70}, box, box, 4.0}, lease);
    expect_seed_identical({{0, 20, 40, 64}, {0, 20, 50, 40}, box, box, 0.7}, lease);
    // Across box sizes: a z = 60 state onto z = 120, and a seed laid out on
    // one box, then grown in y (zero-padded past the first box).
    expect_seed_identical({{0, 20, 50, 60}, none, {0, 20, 50, 120}, {0, 20, 50, 120}, 0.0},
                          lease);
    expect_seed_identical({box, {0, 20, 70, 64}, box, {0, 20, 76, 64}, 2.6}, lease);
    expect_seed_identical({{0, 20, 70, 64}, none, box, {0, 20, 76, 64}, 0.0}, lease);
    // A z growth: the last box's iterate onto the doubled box.
    expect_seed_identical({box, none, box, {0, 20, 50, 128}, 0.0}, lease);
    // Cold: the geometric profile, on a wide box, a pinned-user box and z_hi = 0.
    expect_seed_identical({none, none, box, box, 0.0}, lease);
    expect_seed_identical({none, none, {3, 3, 7, 64}, {3, 3, 7, 64}, 0.0}, lease);
    expect_seed_identical({none, none, {0, 10, 12, 0}, {0, 10, 12, 0}, 0.0}, lease);
}

// Every field of the read-out within 1e-13 of measure_lattice's (relative;
// exactly when that is 0).
void expect_read_out_matches(const LatticeGrid& g, const LatticeRates& r,
                             const std::vector<double>& marginal, const detail::LineMoments& m,
                             const std::vector<double>& pi, const char* what) {
    for (const detail::TruncationCuts cuts :
         {detail::TruncationCuts{false, false}, detail::TruncationCuts{true, false},
          detail::TruncationCuts{false, true}, detail::TruncationCuts{true, true}}) {
        const detail::LatticeObservables want = detail::measure_lattice(g, r, cuts, pi);
        const detail::LatticeObservables got =
            detail::read_observables(g, r, cuts, marginal, m, pi);
        const auto near = [&](double a, double b, const char* field) {
            EXPECT_NEAR(a, b, 1e-13 * std::abs(b))
                << what << " z_hi " << g.z_hi << " cuts " << cuts.x << cuts.y << ": " << field;
        };
        near(got.mean_z, want.mean_z, "mean_z");
        near(got.throughput, want.throughput, "throughput");
        near(got.busy, want.busy, "busy");
        near(got.sigma_num, want.sigma_num, "sigma_num");
        near(got.sigma_den, want.sigma_den, "sigma_den");
        near(got.mean_x, want.mean_x, "mean_x");
        near(got.mean_y, want.mean_y, "mean_y");
        near(got.boundary, want.boundary, "boundary");
        near(got.boundary_y, want.boundary_y, "boundary_y");
        EXPECT_EQ(got.boundary_z, want.boundary_z) << what << " z_hi " << g.z_hi;
    }
}

// A flat lattice (random lines, a marginal of random masses) projected.
void expect_flat_read_out(const Box& b) {
    const LatticeGrid g = grid_of(b);
    const LatticeRates r{b.x_lo != b.x_hi, 0.4, 0.2, 0.5, 0.5, 2.0, 10.0};
    std::vector<double> pi = random_state(g, 0x7e4du + g.size());
    hap::sim::RandomStream rng(0x11u + g.size());
    std::vector<double> marginal(g.nx * g.ny);
    for (double& m : marginal) m = rng.uniform(0.0, 1.0) / static_cast<double>(marginal.size());
    detail::LineMoments m;
    detail::project_marginal(g, marginal, pi, &m);
    expect_read_out_matches(g, r, marginal, m, pi, "flat");
}

TEST(LatticeReadOut, WithinRoundingOfMeasureLattice) {
    for (const std::size_t z_hi : {0, 1, 64}) {
        expect_flat_read_out({0, 20, 50, z_hi});
        expect_flat_read_out({3, 3, 7, z_hi});  // pinned users
    }

    // A paper_baseline box near its fixed point: one team sweep of a solved
    // state, projected onto the box's exact marginal.
    const HapParams p = HapParams::paper_baseline(20.0);
    Solution0Options o;
    o.max_users = 20;
    o.max_apps = 50;
    o.max_messages = 64;
    o.keep_state = true;
    const Solution0Result s = solve_solution0(p, o);
    ASSERT_TRUE(s.converged);
    const LatticeGrid g = detail::make_lattice_grid(s.state.x_lo, s.state.x_hi, s.state.y_hi,
                                                    s.state.z_hi);
    const ApplicationType& app = p.apps.front();
    const LatticeRates r{true,
                         p.user_arrival_rate,
                         p.user_departure_rate,
                         static_cast<double>(p.num_app_types()) * app.arrival_rate,
                         app.departure_rate,
                         app.total_message_rate(),
                         app.messages.front().service_rate};
    ChainBounds mb;
    mb.max_users = g.x_hi;
    mb.max_apps_total = g.y_hi;
    const std::vector<double> marginal = LumpedChain(p, mb).stationary(1e-13).pi;
    std::vector<double> pi = s.state.pi;
    hap::parallel::TeamLease lease;
    detail::TeamSweep team;
    team.lease = &lease;
    detail::sweep_and_project(g, r, marginal, pi, true, 1, team);
    expect_read_out_matches(g, r, marginal, team.moments, pi, "paper_baseline");
}

// A solve's reported answer is the read-out of the lattice it returns,
// converged or not: within 1e-13 of that lattice's observables summed in
// long double. measure_lattice is no reference here: its one running sum
// over a 130k-state lattice one sweep from a cold start is 3.5e-13 off.
void expect_answer_matches_state(const HapParams& p, Solution0Options o) {
    o.keep_state = true;
    const Solution0Result s = solve_solution0(p, o);
    const LatticeGrid g = detail::make_lattice_grid(s.state.x_lo, s.state.x_hi, s.state.y_hi,
                                                    s.state.z_hi);
    const double beta = p.apps.front().total_message_rate();
    long double mean_z = 0.0L, throughput = 0.0L, busy = 0.0L, sigma_num = 0.0L;
    long double mean_x = 0.0L, mean_y = 0.0L, boundary = 0.0L;
    for (std::size_t xi = 0; xi < g.nx; ++xi) {
        for (std::size_t y = 0; y < g.ny; ++y) {
            const long double arr = static_cast<long double>(y) * beta;
            // No admission bounds: the x_hi face cuts when users vary.
            const bool face = (g.nx > 1 && xi + 1 == g.nx) || y == g.y_hi;
            for (std::size_t z = 0; z < g.nz; ++z) {
                const long double v = s.state.pi[g.idx(g.x_lo + xi, y, z)];
                mean_z += v * static_cast<long double>(z);
                mean_x += v * static_cast<long double>(g.x_lo + xi);
                mean_y += v * static_cast<long double>(y);
                if (z > 0) busy += v;
                if (z < g.z_hi) throughput += v * arr;
                if (z > 0 && z < g.z_hi) sigma_num += v * arr;
                if (face || z == g.z_hi) boundary += v;
            }
        }
    }
    const auto near = [&](double got, long double want, const char* field) {
        const double w = static_cast<double>(want);
        EXPECT_NEAR(got, w, 1e-13 * w) << (s.converged ? "converged: " : "not converged: ")
                                       << field;
    };
    near(s.mean_messages, mean_z, "mean_z");
    near(s.mean_rate, throughput, "throughput");
    near(s.utilization, busy, "busy");
    near(s.sigma, sigma_num / throughput, "sigma");
    near(s.mean_users, mean_x, "mean_x");
    near(s.mean_apps, mean_y, "mean_y");
    near(s.truncation_mass, boundary, "boundary");
}

TEST(LatticeReadOut, SolveAnswersAreTheReturnedLattices) {
    Solution0Options o;
    o.max_messages = 120;
    expect_answer_matches_state(small_hap(), o);
    o.max_sweeps = 3;  // the non-converged exit
    expect_answer_matches_state(small_hap(), o);
    o.max_sweeps = 1;
    expect_answer_matches_state(HapParams::paper_baseline(20.0), o);
}

// A modulating-chain throw on the lease holder while the helpers lay out a
// seed: it reaches the caller as thrown once the helpers are done (the seed
// is whole), the team still runs jobs, and the lease gives it back. The box
// is large, so its seed takes milliseconds against the throw's microseconds.
TEST(LatticeSeed, AChainThrowBesideTheSeedReachesTheCaller) {
    const LatticeGrid g = detail::make_lattice_grid(0, 20, 150, 600);
    detail::LatticeSeed seed;
    seed.sigma = 0.5;
    std::vector<double> want;
    detail::seed_lattice(g, seed, want, 1, nullptr);
    bool was_held = false;
    {
        hap::parallel::TeamLease lease;
        was_held = lease.held();
        auto chain = [] {
            ChainBounds mb;
            mb.max_users = 20;
            mb.max_apps_total = 0;  // no app level: LumpedChain refuses the box
            (void)LumpedChain(small_hap(), mb).stationary(1e-10);
        };
        std::vector<double> got;
        try {
            detail::seed_lattice(g, seed, got, lease.threads(), &lease, chain);
            ADD_FAILURE() << "the chain's throw was lost";
        } catch (const std::invalid_argument& e) {
            EXPECT_STREQ(e.what(), "LumpedChain: max_apps bound is 0");
        }
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(double)), 0);
        std::vector<double> again;
        detail::seed_lattice(g, seed, again, lease.threads(), &lease);
        EXPECT_EQ(std::memcmp(want.data(), again.data(), want.size() * sizeof(double)), 0);
    }
    const hap::parallel::TeamLease next;
    EXPECT_EQ(next.held(), was_held);
}

// The team-or-alone rule on synthetic costs, no clock: each job's side as
// T (team) or A (alone), over `jobs` jobs of `size` that cost `team` on the
// team and `alone` alone.
std::string drive_policy(hap::parallel::TeamPolicy& p, int jobs, double team, double alone,
                         std::size_t size = 1) {
    std::string sides;
    for (int i = 0; i < jobs; ++i) {
        const bool on_team = p.use_team(size);
        sides += on_team ? 'T' : 'A';
        p.record(on_team ? team : alone);
    }
    return sides;
}

std::string runs(std::size_t n, char side) { return std::string(n, side); }

TEST(TeamPolicy, KeepsTheCheaperSideAndBacksOffItsProbes) {
    hap::parallel::TeamPolicy p;
    // Alone costs twice the team. It is timed after the first team job,
    // then re-timed once the team has run 2, 4, 8 times that timing (4, 8,
    // 16 jobs), and loses each time.
    EXPECT_EQ(drive_policy(p, 33, 1.0, 2.0),
              "TA" + runs(4, 'T') + "A" + runs(8, 'T') + "A" + runs(16, 'T') + "A");
    EXPECT_TRUE(p.prefers_team());
    // The back-off stops doubling at kMaxGap.
    const std::string more = drive_policy(p, 1000, 1.0, 2.0);
    const std::size_t last = more.rfind('A');
    ASSERT_NE(last, std::string::npos);
    EXPECT_EQ(static_cast<double>(last - more.rfind('A', last - 1) - 1),
              2.0 * hap::parallel::TeamPolicy::kMaxGap);
}

TEST(TeamPolicy, AFlipRestartsTheBackOff) {
    hap::parallel::TeamPolicy p;
    // A busy host: the team costs twice alone. The first probe flips to
    // alone; the team is re-timed once alone has run as long as that probe
    // (one job), then 2 and 4 times the team's timing (4 and 8 jobs).
    EXPECT_EQ(drive_policy(p, 18, 2.0, 1.0),
              "TA" + runs(1, 'A') + "T" + runs(4, 'A') + "T" + runs(8, 'A') + "T");
    EXPECT_FALSE(p.prefers_team());
    // Idle again, the team costs a quarter. One cheap team sweep does not
    // outweigh the slow ones before it; the second flips back, and alone is
    // re-timed after one team job, then after 8.
    EXPECT_EQ(drive_policy(p, 33, 0.25, 1.0),
              runs(16, 'A') + "T" + runs(4, 'A') + "TTA" + runs(8, 'T') + "A");
    EXPECT_TRUE(p.prefers_team());
}

TEST(TeamPolicy, WeighsAStallByItsSize) {
    // A team sweep that stalls at 4 moves the team's mean cost by 3/16: the
    // alone probe right after it still loses.
    hap::parallel::TeamPolicy p;
    EXPECT_EQ(drive_policy(p, 2, 1.0, 2.0), "TA");
    EXPECT_EQ(drive_policy(p, 1, 4.0, 2.0), "T");
    EXPECT_EQ(drive_policy(p, 1, 1.0, 2.0), "A");
    EXPECT_TRUE(p.prefers_team());
    // One at 1000 moves it to 63, and the probe after it flips to alone.
    // Its ratio counts as 4 at most, so two fast probes bring the team back.
    hap::parallel::TeamPolicy q;
    EXPECT_EQ(drive_policy(q, 2, 1.0, 2.0), "TA");
    EXPECT_EQ(drive_policy(q, 2, 1000.0, 2.0), "TA");
    EXPECT_FALSE(q.prefers_team());
    EXPECT_EQ(drive_policy(q, 5, 1.0, 2.0), "ATATT");
    EXPECT_TRUE(q.prefers_team());
}

TEST(TeamPolicy, ComparesOnlyJobsOfOneSize) {
    hap::parallel::TeamPolicy p;
    EXPECT_EQ(drive_policy(p, 1, 1.0, 2.0, 1), "T");
    // The probe due on the first job of a new size waits for the second, so
    // alone at 2.0 is compared with the team's 3.0 on this size, not with a
    // mean that holds its 1.0 on the last, and wins.
    EXPECT_EQ(drive_policy(p, 2, 3.0, 2.0, 2), "TA");
    EXPECT_FALSE(p.prefers_team());
}

TEST(TeamPolicy, AnEmptyLeaseNeverGetsHelpers) {
    const hap::parallel::TeamLease held;
    const hap::parallel::TeamLease declined(false);
    hap::parallel::TeamLease empty;
    EXPECT_FALSE(declined.held());
    ASSERT_FALSE(empty.held());
    EXPECT_EQ(empty.threads(), 1u);
    std::size_t most = 0;
    auto job = [&](std::size_t threads) { most = std::max(most, threads); };
    for (int i = 0; i < 200; ++i) EXPECT_FALSE(empty.run_timed(1, job));
    EXPECT_EQ(most, 1u);
}

// Where the team's threads run, read inside each job: the helpers on CPUs
// of their own, none on the CPU the holder started the job on. A job whose
// holder moved between the two reads says nothing and is not counted.
TEST(Team, HelpersRunAwayFromTheCallerOnDistinctCpus) {
    hap::parallel::TeamLease lease;
    if (!lease.held()) GTEST_SKIP() << "the team is leased elsewhere";
    const std::size_t n = lease.threads();
    if (n < 2 || hap::parallel::usable_cpus().size() < n)
        GTEST_SKIP() << "fewer usable CPUs than team threads";
    std::vector<int> cpu(n);
    auto job = [&](std::size_t w) { cpu[w] = sched_getcpu(); };
    int checked = 0;
    for (int i = 0; i < 400; ++i) {
        const int holder = sched_getcpu();
        lease.run(n, job);
        if (cpu[0] != holder) continue;
        ++checked;
        std::string where;
        for (std::size_t w = 0; w < n; ++w) {
            where += ' ';
            where += std::to_string(cpu[w]);
        }
        for (std::size_t a = 1; a < n; ++a) {
            EXPECT_NE(cpu[a], holder) << "job " << i << ", CPUs" << where;
            for (std::size_t b = a + 1; b < n; ++b)
                EXPECT_NE(cpu[a], cpu[b]) << "job " << i << ", CPUs" << where;
        }
        if (HasFailure()) return;
    }
    EXPECT_GT(checked, 200);
}

// The team is sized at its first use, so the check runs in a child process
// that narrows its own affinity mask to one CPU before that.
TEST(Team, SizedFromTheAffinityMask) {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_EXIT(
        {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(sched_getcpu(), &one);
            if (sched_setaffinity(0, sizeof one, &one) != 0) std::exit(2);
            const hap::parallel::TeamLease lease;
            const bool one_thread = hap::parallel::usable_cpus().size() == 1 &&
                                    lease.held() && lease.threads() == 1;
            std::exit(one_thread ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

// Solution 0's stop rule over a synthetic sequence of per-check changes, no
// lattice: the index of the check it stops at, or the sequence's length.
std::size_t stop_index(const std::vector<double>& changes, double tol) {
    double prev = -1.0;
    for (std::size_t i = 0; i < changes.size(); ++i) {
        if (detail::stop_rule(changes[i], prev, tol).stop) return i;
        prev = changes[i];
    }
    return changes.size();
}

std::vector<double> geometric(double first, double q, std::size_t n) {
    std::vector<double> d(n);
    for (std::size_t i = 0; i < n; ++i) d[i] = first * std::pow(q, static_cast<double>(i));
    return d;
}

// The error left after check i of a contracting iteration: the sum of the
// changes still to come.
double tail(const std::vector<double>& d, std::size_t i) {
    double sum = 0.0;
    for (std::size_t j = d.size(); j-- > i + 1;) sum += d[j];
    return sum;
}

TEST(StopRule, GeometricChangesStopAtTheFirstCheckWithinTol) {
    // On geometric changes the estimate d q / (1 - q) is the error left
    // exactly, so the rule stops at the first check where that error and
    // the change itself are below tol, and not one check earlier.
    const double tol = 1e-9;
    for (const double q : {0.3, 0.99}) {
        const std::vector<double> d = geometric(1e-3, q, 5000);
        const std::size_t i = stop_index(d, tol);
        ASSERT_LT(i, d.size()) << "q " << q;
        ASSERT_GT(i, 0u) << "q " << q;
        EXPECT_LT(tail(d, i), tol) << "q " << q;
        EXPECT_LT(d[i], tol) << "q " << q;
        EXPECT_GE(std::max(tail(d, i - 1), d[i - 1]), tol) << "q " << q;
    }
    // At q = 0.99 the error left is 99 times the change, so a change below
    // tol is not enough: a rule on the change alone would stop at check
    // 1375, this one waits until 1832.
    const std::vector<double> slow = geometric(1e-3, 0.99, 5000);
    std::size_t change_only = 0;
    while (slow[change_only] >= tol) ++change_only;
    EXPECT_EQ(change_only, 1375u);
    EXPECT_EQ(stop_index(slow, tol), 1832u);
}

TEST(StopRule, GrowingOrConstantChangesNeverStop) {
    // q >= 1: no contraction, no error estimate, however small the change.
    const double tol = 1e-9;
    EXPECT_EQ(stop_index(geometric(1e-14, 1.5, 40), tol), 40u);
    // An iterate cycling between two states changes by the same amount at
    // every check: q = 1.
    EXPECT_EQ(stop_index(std::vector<double>(40, 1e-12), tol), 40u);
    const detail::StopDecision s = detail::stop_rule(1e-12, 1e-12, tol);
    EXPECT_FALSE(s.stop);
    EXPECT_DOUBLE_EQ(s.residual, 1e-12);
}

TEST(StopRule, AnExactlyZeroChangeStops) {
    // Nothing moved between two checks: the iterate is a fixed point.
    const double tol = 1e-9;
    EXPECT_EQ(stop_index({1e-3, 0.0, 1e-3}, tol), 1u);
    EXPECT_EQ(stop_index({0.0}, tol), 0u);  // even without a contraction seen
    EXPECT_LE(detail::stop_rule(0.0, 1e-3, tol).residual, 0.0);
    // The first change has nothing to contract against: it never stops alone.
    EXPECT_FALSE(detail::stop_rule(1e-20, -1.0, tol).stop);
}

TEST(Solution0, RejectsUnsupportedShapes) {
    HapParams het = HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 2, 1.0, 1, 10.0);
    het.apps[1].arrival_rate = 0.9;
    het.validate();
    EXPECT_THROW(solve_solution0(het), std::invalid_argument);

    HapParams mixed_service = small_hap();
    mixed_service.apps[0].messages.push_back(MessageType{1.0, 25.0, ""});
    mixed_service.validate();
    EXPECT_THROW(solve_solution0(mixed_service), std::invalid_argument);
}

TEST(Solution0, PinnedUserTwoLevelMatchesQbd) {
    const HapParams p = HapParams::two_level(0.1, 0.01, 0.1, 4.0);
    Solution0Options o;
    o.max_messages = 300;
    o.tol = 1e-9;
    const auto s0 = solve_solution0(p, o);
    ASSERT_TRUE(s0.converged);
    const auto s3 = solve_solution3(p);
    ASSERT_TRUE(s3.qbd.stable);
    EXPECT_NEAR(s0.mean_delay, s3.qbd.mean_delay, 0.02 * s3.qbd.mean_delay);
    EXPECT_NEAR(s0.utilization, s3.qbd.utilization, 0.005);
    // Pinned users: the x face is not a truncation shell (every state sits
    // on it), so only the y and z shells count.
    EXPECT_LT(s0.truncation_mass, 1e-3);
}

TEST(Solution0, ModulatingMarginalsAreExact) {
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 300;
    const auto s0 = solve_solution0(p, o);
    // The projection pins the modulating marginal, so the population means
    // match the M/M/inf closed forms to solver precision.
    EXPECT_NEAR(s0.mean_users, p.mean_users(), 1e-6);
    EXPECT_NEAR(s0.mean_apps, p.mean_apps(), 1e-4);
    EXPECT_NEAR(s0.utilization, p.offered_load(), 1e-4);
}

TEST(Solution0, AdmissionBoundsHonored) {
    HapParams bounded = small_hap();
    bounded.max_users = 3;
    bounded.max_apps = 5;
    Solution0Options o;
    o.max_messages = 300;
    const auto sb = solve_solution0(bounded, o);
    const auto sf = solve_solution0(small_hap(), o);
    ASSERT_TRUE(sb.converged);
    // Blocking cuts throughput and delay.
    EXPECT_LT(sb.mean_rate, sf.mean_rate);
    EXPECT_LT(sb.mean_delay, sf.mean_delay);
    // And matches the QBD on the identically-truncated chain.
    ChainBounds cb;
    cb.max_users = 3;
    cb.max_apps_total = 5;
    const auto s3 = solve_solution3(bounded, cb);
    EXPECT_NEAR(sb.mean_delay, s3.qbd.mean_delay, 0.02 * s3.qbd.mean_delay);
    // x = 3 and y = 5 are the model's own blocking states, not truncation:
    // only the z shell counts.
    EXPECT_LT(sb.truncation_mass, 1e-6);
}

TEST(Solution0, MarginalTakesDirectPath) {
    // The modulating marginal comes from the exact block elimination: a
    // default solve leaves one "lumped.direct" record and never reaches the
    // Gauss-Seidel fallback ("ctmc.gs").
    const bool was_enabled = hap::obs::enabled();
    hap::obs::set_enabled(true);
    hap::obs::registry().reset();
    Solution0Options o;
    o.max_messages = 300;
    const Solution0Result res = solve_solution0(small_hap(8.0), o);
    std::size_t direct = 0;
    std::size_t gs = 0;
    for (const hap::obs::SolverTelemetry& t : hap::obs::registry().snapshot().solvers) {
        direct += t.solver == "lumped.direct" ? 1 : 0;
        gs += t.solver == "ctmc.gs" ? 1 : 0;
    }
    hap::obs::registry().reset();
    hap::obs::set_enabled(was_enabled);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(direct, 1u);
    EXPECT_EQ(gs, 0u);
}

TEST(Solution0, DelayGrowsWithQueueBoundUnderHeavyTail) {
    // The heavy-tail signature on a loaded queue: widening the z bound keeps
    // adding mean queue (mountains), while sigma stays put.
    const HapParams p = small_hap(8.0);  // rho = 0.5
    Solution0Options o1, o2;
    o1.max_messages = 100;
    o2.max_messages = 500;
    const auto r1 = solve_solution0(p, o1);
    const auto r2 = solve_solution0(p, o2);
    EXPECT_GT(r2.mean_delay, r1.mean_delay * 1.01);
    EXPECT_NEAR(r1.sigma, r2.sigma, 0.01);
}

TEST(Solution0, SigmaConsistentWithUtilizationOrdering) {
    // sigma (rate-weighted P(busy at arrival)) exceeds the time-average
    // utilization for positively correlated arrivals (bursts find queues).
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 400;
    const auto s0 = solve_solution0(p, o);
    EXPECT_GT(s0.sigma, s0.utilization);
}

// The settings of the analytic figure sweeps: an adaptive box under the
// caps, whose z may grow from 64 up to 300.
Solution0Options figure_sweep_options() {
    Solution0Options o;
    o.adaptive = true;
    o.max_users = 20;
    o.max_apps = 50;
    o.max_messages = 300;
    o.tol = 1e-7;
    o.trunc_tol = 1e-9;
    return o;
}

TEST(Solution0, ReportsNonConvergenceHonestly) {
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 400;
    o.max_sweeps = 3;  // far too few
    const auto res = solve_solution0(p, o);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.sweeps, 3u);

    // On an adaptive box the error estimate falls below 1e-6, where the z
    // shell is read, a sweep pair or two before it falls below tol. A sweep
    // cap that lands in between leaves the answer not converged, and the
    // cap is not a refused box.
    const struct {
        double mu2;
        std::size_t sweeps;
    } cases[] = {{20.0, 15}, {20.0, 16}, {24.0, 9}, {24.0, 10}, {28.0, 7}, {28.0, 8}};
    for (const auto& c : cases) {
        const HapParams baseline = HapParams::paper_baseline(c.mu2);
        o = figure_sweep_options();
        o.max_sweeps = c.sweeps;
        const Solution0Result short_run = solve_solution0(baseline, o);
        EXPECT_FALSE(short_run.converged) << c.mu2 << " " << c.sweeps;
        EXPECT_GE(short_run.residual, o.tol) << c.mu2 << " " << c.sweeps;
        EXPECT_FALSE(short_run.budget_exhausted) << c.mu2 << " " << c.sweeps;
        EXPECT_EQ(short_run.sweeps, c.sweeps);
    }
}

TEST(Solution0, APassOutOfSweepsKeepsItsBox) {
    // At mu'' = 17 the z shell of the 64-deep start box holds more than
    // trunc_tol, but 4 sweeps end the solve before its estimate settles:
    // the solve returns the swept start box, not an unswept deeper one,
    // and the lattice it returns has unit mass.
    Solution0Options o = figure_sweep_options();
    o.max_sweeps = 4;
    o.keep_state = true;
    const Solution0Result s = solve_solution0(HapParams::paper_baseline(17.0), o);
    EXPECT_FALSE(s.converged);
    EXPECT_EQ(s.sweeps, 4u);
    EXPECT_EQ(s.box_growths, 0u);
    EXPECT_EQ(s.state.z_hi, 64u);
    EXPECT_EQ(s.states, 69615u);
    ASSERT_EQ(s.state.pi.size(), s.states);
    long double mass = 0.0L;
    for (const double v : s.state.pi) mass += v;
    EXPECT_NEAR(static_cast<double>(mass - 1.0L), 0.0, 1e-15);
}

TEST(Solution0, WarmStartMatchesColdAcrossParameterStep) {
    // Continuation step: seed the solve at lambda' = 1.05 lambda from the
    // converged state at lambda. Same answer as the cold solve to well
    // within the sweep-equivalence bar (1e-6), in no more sweeps.
    const HapParams p = small_hap();
    Solution0Options o;
    o.max_messages = 120;
    o.tol = 1e-8;
    o.keep_state = true;
    const auto base = solve_solution0(p, o);
    ASSERT_TRUE(base.converged);
    EXPECT_FALSE(base.warm_started);
    ASSERT_FALSE(base.state.empty());

    HapParams q = small_hap();
    q.user_arrival_rate *= 1.05;
    q.validate();
    const auto cold = solve_solution0(q, o);
    ASSERT_TRUE(cold.converged);

    Solution0Options w = o;
    w.warm = &base.state;
    const auto warm = solve_solution0(q, w);
    ASSERT_TRUE(warm.converged);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_LE(warm.sweeps, cold.sweeps);
    EXPECT_NEAR(warm.mean_delay, cold.mean_delay, 1e-6 * cold.mean_delay);
    EXPECT_NEAR(warm.utilization, cold.utilization, 1e-6 * cold.utilization);
}

TEST(Solution0, WarmStateRemapsAcrossBoxSizes) {
    // The exported state from a small z box seeds a solve on a larger box:
    // the vector is zero-padded onto the new geometry, not rejected.
    const HapParams p = small_hap();
    Solution0Options small_o;
    small_o.max_messages = 60;
    small_o.tol = 1e-8;
    small_o.keep_state = true;
    const auto coarse = solve_solution0(p, small_o);
    ASSERT_TRUE(coarse.converged);

    Solution0Options big_o;
    big_o.max_messages = 120;
    big_o.tol = 1e-8;
    const auto cold = solve_solution0(p, big_o);
    ASSERT_TRUE(cold.converged);

    Solution0Options w = big_o;
    w.warm = &coarse.state;
    const auto warm = solve_solution0(p, w);
    ASSERT_TRUE(warm.converged);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_NEAR(warm.mean_delay, cold.mean_delay, 1e-6 * cold.mean_delay);
    EXPECT_NEAR(warm.utilization, cold.utilization, 1e-6 * cold.utilization);
}

TEST(Solution0, AdaptiveMatchesFixedBox) {
    // The adaptive engine grows the truncation box until the boundary-shell
    // mass is negligible; observables must match the worst-case fixed box
    // within the equivalence bar, on no more states.
    const HapParams p = small_hap();
    Solution0Options fixed_o;
    fixed_o.max_messages = 200;
    fixed_o.tol = 1e-8;
    const auto fixed = solve_solution0(p, fixed_o);
    ASSERT_TRUE(fixed.converged);

    Solution0Options ad_o = fixed_o;
    ad_o.adaptive = true;
    ad_o.trunc_tol = 1e-9;
    const auto ad = solve_solution0(p, ad_o);
    ASSERT_TRUE(ad.converged);
    EXPECT_LE(ad.states, fixed.states);
    EXPECT_NEAR(ad.mean_delay, fixed.mean_delay, 1e-6 * fixed.mean_delay);
    EXPECT_NEAR(ad.utilization, fixed.utilization, 1e-6 * fixed.utilization);
}

// Every converged answer of `grid`, solved as `opts` sweep it, within 2 tol
// of a tol = 1e-12 solve on the answer's own box.
void expect_within_twice_tol(const std::vector<hap::experiment::AnalyticPoint>& grid,
                             hap::experiment::AnalyticSweepOptions opts) {
    opts.export_states = true;
    const auto res = hap::experiment::run_analytic_sweep(grid, opts);
    ASSERT_EQ(res.size(), grid.size());
    const double tol = opts.solver.tol;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const Solution0Result& s = res[i].s0;
        ASSERT_TRUE(s.converged) << grid[i].name;
        Solution0Options tight;
        tight.tol = 1e-12;
        tight.max_users = s.state.x_hi;
        tight.max_apps = s.state.y_hi;
        tight.max_messages = s.state.z_hi;
        const Solution0Result ref = solve_solution0(grid[i].params, tight);
        ASSERT_TRUE(ref.converged) << grid[i].name;
        ASSERT_EQ(ref.states, s.states) << grid[i].name;
        EXPECT_NEAR(s.mean_delay, ref.mean_delay, 2.0 * tol * ref.mean_delay) << grid[i].name;
        EXPECT_NEAR(s.mean_messages, ref.mean_messages, 2.0 * tol * ref.mean_messages)
            << grid[i].name;
    }
}

TEST(Solution0, StopRuleBoundsTheError) {
    // Two Fig. 12 curves under the continuation settings of the analytic
    // figure sweeps: the slowest contraction (mu'' = 17) and the fastest
    // (mu'' = 28, two sweeps a point from a secant seed).
    for (const double mu2 : {17.0, 28.0}) {
        std::vector<hap::experiment::AnalyticPoint> grid;
        for (int i = 0; i < 15; ++i) {
            hap::experiment::AnalyticPoint pt;
            pt.coord = 0.4 + 0.9 * i / 14.0;
            pt.name = "mu=";
            pt.name += std::to_string(mu2);
            pt.name += " s=";
            pt.name += std::to_string(pt.coord);
            pt.params = HapParams::paper_baseline(mu2);
            pt.params.user_arrival_rate *= pt.coord;
            grid.push_back(pt);
        }
        hap::experiment::AnalyticSweepOptions opts;
        opts.solver.tol = 1e-7;
        opts.solver.max_users = 20;
        opts.solver.max_apps = 50;
        opts.solver.max_messages = 300;
        expect_within_twice_tol(grid, opts);
    }
    // A slowly contracting model, about 300 sweeps a point.
    std::vector<hap::experiment::AnalyticPoint> grid;
    for (const double s : {0.8, 0.9, 1.0, 1.1, 1.2}) {
        hap::experiment::AnalyticPoint pt;
        pt.coord = s;
        pt.name = "scale=";
        pt.name += std::to_string(s);
        pt.params = small_hap();
        pt.params.user_arrival_rate *= s;
        grid.push_back(pt);
    }
    hap::experiment::AnalyticSweepOptions opts;
    opts.solver.tol = 1e-8;
    opts.solver.max_messages = 120;
    expect_within_twice_tol(grid, opts);
}

bool same_state(const Solution0Result& a, const Solution0Result& b) {
    return a.sweeps == b.sweeps && a.state.pi.size() == b.state.pi.size() &&
           std::memcmp(a.state.pi.data(), b.state.pi.data(),
                       a.state.pi.size() * sizeof(double)) == 0;
}

TEST(Solution0, ConcurrentSolvesMatchSerialBytes) {
    // Two solves of different points at once: one leases the team, the
    // other finds it taken and sweeps on its own thread. Each exported
    // state is the bytes of the same solve run alone.
    const HapParams points[2] = {small_hap(10.0), small_hap(8.0)};
    Solution0Options o;
    o.max_messages = 64;
    o.tol = 1e-8;
    o.keep_state = true;
    const Solution0Result alone[2] = {solve_solution0(points[0], o),
                                      solve_solution0(points[1], o)};
    ASSERT_TRUE(alone[0].converged);
    ASSERT_TRUE(alone[1].converged);

    Solution0Result at_once[2];
    std::atomic<int> ready{0};
    hap::parallel::parallel_for(2, 2, [&](std::size_t i) {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        at_once[i] = solve_solution0(points[i], o);
    });
    EXPECT_TRUE(same_state(at_once[0], alone[0]));
    EXPECT_TRUE(same_state(at_once[1], alone[1]));

    // The fallback on demand: this thread holds the team, so the solve
    // finds it taken, counts itself in solution0.team_busy and runs alone.
    const bool was_enabled = hap::obs::enabled();
    hap::obs::set_enabled(true);
    hap::obs::registry().reset();
    Solution0Result fallback;
    {
        const hap::parallel::TeamLease held;
        ASSERT_TRUE(held.held());
        fallback = solve_solution0(points[0], o);
    }
    std::uint64_t busy = 0;
    std::uint64_t fell_back = 0;  // sweeps a holder ran alone: none without the team
    for (const auto& [name, value] : hap::obs::registry().snapshot().counters) {
        if (name == "solution0.team_busy") busy = value;
        if (name == "solution0.team_fallback") fell_back = value;
    }
    hap::obs::registry().reset();
    hap::obs::set_enabled(was_enabled);
    EXPECT_EQ(busy, 1u);
    EXPECT_EQ(fell_back, 0u);
    EXPECT_TRUE(same_state(fallback, alone[0]));
}

}  // namespace
