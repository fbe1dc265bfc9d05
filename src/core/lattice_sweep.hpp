// Internal: the Solution 0 lattice kernels. One line-relaxation sweep over
// the (x, y, z) lattice — Gauss-Seidel over (x, y) lines, an exact tridiagonal
// (Thomas) solve along each z line — the observables pass, the marginal
// projection with the line moments it leaves behind, and the stop rule that
// reads them. Shared by solution0.cpp and the tests that pin them against
// their plain reference forms; not part of the public solver surface.
#pragma once

#include <cstddef>
#include <vector>

#include "parallel/team.hpp"

namespace hap::core::detail {

// Truncation box [x_lo, x_hi] x [0, y_hi] x [0, z_hi], stored row-major with
// z fastest: one contiguous z line per (x, y).
struct LatticeGrid {
    std::size_t x_lo, x_hi, y_hi, z_hi;
    std::size_t nx, ny, nz;

    std::size_t size() const noexcept { return nx * ny * nz; }
    std::size_t idx(std::size_t x, std::size_t y, std::size_t z) const noexcept {
        return ((x - x_lo) * ny + y) * nz + z;
    }
};

LatticeGrid make_lattice_grid(std::size_t x_lo, std::size_t x_hi, std::size_t y_hi,
                              std::size_t z_hi) noexcept;

struct LatticeRates {
    bool dynamic_users;
    double lambda;   // user arrival
    double mu;       // user departure (per user)
    double alpha;    // app arrival per user (l * lambda')
    double mu1;      // app departure (per instance)
    double beta;     // message rate per app instance (m * lambda'')
    double mu2;      // message service rate
};

// Scratch reused across sweeps: Thomas coefficients, pivots and right-hand
// sides for one group of lines, lane-interleaved ([z][lane]), plus an
// all-zero line that stands in for a neighbor outside the box.
struct LineWorkspace {
    std::vector<double> cp;
    std::vector<double> denom;
    std::vector<double> rhs;
    std::vector<double> zero;
};

// One sweep, updating `pi` in place, on the calling thread. `forward` sweeps
// from (x_lo, 0) to (x_hi, y_hi), otherwise the reverse; either way the
// result is bit-identical to visiting the lines in lexicographic order in
// that direction.
void sweep_lattice(const LatticeGrid& g, const LatticeRates& r, std::vector<double>& pi,
                   bool forward, LineWorkspace& ws);

// Which hi faces of the box are truncation faces: where the box, not the
// model, cuts the lattice off. The z face always is one.
struct TruncationCuts {
    bool x;
    bool y;
};

struct LatticeObservables {
    double mean_z = 0.0;
    double throughput = 0.0;
    double busy = 0.0;
    double sigma_num = 0.0;
    double sigma_den = 0.0;
    double mean_x = 0.0;
    double mean_y = 0.0;
    double boundary = 0.0;    // union of the truncation faces (reported mass)
    double boundary_y = 0.0;  // y == y_hi shell alone (drives y growth)
    double boundary_z = 0.0;  // z == z_hi shell alone (drives z growth)
};

// Moments, message throughput, the sigma sums and the shell masses of `pi`,
// all summed in lattice order.
LatticeObservables measure_lattice(const LatticeGrid& g, const LatticeRates& r,
                                   TruncationCuts cuts, const std::vector<double>& pi);

// Two moments of every (x, y) line, in lattice order, as the projection
// leaves it: what a convergence check reads instead of a measure_lattice
// pass over every state.
struct LineMoments {
    std::vector<double> z;     // sum of z * pi over the line
    std::vector<double> open;  // mass at z < z_hi, the states that accept arrivals
};

// Pin every (x, y) line's total mass to the exact modulating-chain marginal
// (`marginal`: one entry per line, in lattice order). The modulating chain is
// autonomous (its dynamics do not depend on z), so its stationary law is
// known independently and cheaply; enforcing it after each sweep removes the
// slow "mass migration between lines" error mode that otherwise makes
// Gauss-Seidel crawl on this nearly-decomposable system — the very
// metastability that cost the paper two weeks of SUN-4/280 time. Each line
// is summed in ascending z and scaled by target / total; a line with no mass
// gets its whole target at z = 0. Bit-identical to projecting the lines one
// at a time. With `moments`, also writes each line's moments: the sums the
// projection takes anyway, times the line's scale factor.
void project_marginal(const LatticeGrid& g, const std::vector<double>& marginal,
                      std::vector<double>& pi, LineMoments* moments = nullptr);

// E[z] and the message throughput of a projected lattice, summed from its
// line moments in line order, so they do not depend on how the projection
// was split. They agree with measure_lattice's to rounding, not bit for bit.
struct CheckMoments {
    double mean_z = 0.0;
    double throughput = 0.0;
};
CheckMoments sum_line_moments(const LatticeGrid& g, const LatticeRates& r,
                              const LineMoments& m);

// Solution 0's stop rule. `change` is the relative change of (delay, E[z])
// since the last check, `prev_change` the one before it (< 0: none yet).
// Their ratio q estimates the contraction, and change * q / (1 - q) the
// error left. The solve stops once both the change and that estimate are
// below `tol`, which needs q < 1; an exactly zero change is a fixed point and
// stops at once. `residual` is max(change, estimate), or the change alone
// when no contraction was seen.
struct StopDecision {
    double residual;
    bool stop;
};
StopDecision stop_rule(double change, double prev_change, double tol) noexcept;

// The x-blocks a team sweep splits an nx-wide box into with `threads`
// threads: one per thread, each at least a few columns wide, at least one.
std::size_t sweep_blocks(std::size_t nx, std::size_t threads) noexcept;

// Anti-diagonal steps one x-block has finished in the current sweep. Padded
// to a cache line so the blocks' counters do not share one.
struct alignas(64) BlockProgress {
    parallel::Progress steps;
};

// What a solve's sweeps keep between calls: the team lease they run on
// (null or empty: the calling thread alone), one line workspace and one
// progress counter per x-block, and the line moments of the last projection.
struct TeamSweep {
    parallel::TeamLease* lease = nullptr;
    std::vector<LineWorkspace> ws;
    std::vector<BlockProgress> progress;
    LineMoments moments;
};

// One sweep and then the marginal projection, with the box split into
// `blocks` contiguous x-blocks (clamped to [1, nx]) that run at once on the
// lease's threads. Block b walks the sweep's anti-diagonals clipped to its
// x-range and starts each one only after its upstream neighbor (b - 1, or
// b + 1 on the reverse sweep) has published the one before. Every line sees
// the neighbor values of the lexicographic sweep and runs the same scalar
// recurrence, and projection sums each line on its own, so `pi` comes out
// bit-identical to sweep_lattice + project_marginal at any block count and
// any number of threads. One block is exactly those two calls. Each block
// writes its own lines' moments into `team.moments`, so those are
// bit-identical at any block count too.
void sweep_and_project(const LatticeGrid& g, const LatticeRates& r,
                       const std::vector<double>& marginal, std::vector<double>& pi,
                       bool forward, std::size_t blocks, TeamSweep& team);

}  // namespace hap::core::detail
