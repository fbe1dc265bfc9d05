// Solution 0 (paper Section 3.2.1): brute-force steady state of the full
// (x, y, z) Markov chain — modulating lattice PLUS the queue dimension z —
// for homogeneous HAPs, followed by Little's law. This is the paper's exact
// reference (it preserves the correlation between successive interarrivals
// that Solutions 1/2 discard). The paper ran it for two weeks on a SUN-4/280;
// here the balance equations are swept in place by line relaxation (Gauss-
// Seidel over (x, y) lines, alternating directions, each z line solved
// exactly), every line's mass pinned to the exactly solved modulating-chain
// marginal after each sweep, starting from a geometric queue profile. That
// converges in milliseconds to seconds on current hardware.
#pragma once

#include <cstddef>
#include <vector>

#include "core/hap_params.hpp"

namespace hap::core {

// Converged lattice distribution plus its box, exported with
// `Solution0Options::keep_state` and fed back through
// `Solution0Options::warm`: a sweep driver hands each solve the previous
// point's state so the iteration starts next to the new fixed point instead
// of at the geometric cold-start profile (continuation). Boxes need not
// match — the vector is zero-padded/cropped onto the new box before use.
struct Solution0State {
    std::vector<double> pi;  // row-major ((x - x_lo) * ny + y) * nz + z
    std::size_t x_lo = 0;
    std::size_t x_hi = 0;
    std::size_t y_hi = 0;
    std::size_t z_hi = 0;

    bool empty() const noexcept { return pi.empty(); }
};

struct Solution0Options {
    std::size_t max_users = 0;     // x bound; 0 = mass-based default
    std::size_t max_apps = 0;      // lumped y bound; 0 = default
    std::size_t max_messages = 0;  // z bound; 0 = default (load-dependent)
    // Bound on the estimated relative error of (delay, E[z]). A check runs
    // after every forward + reverse sweep pair; with d the relative change
    // since the last check and q = d / d_prev, the solve stops once d < tol,
    // q < 1 and d q / (1 - q), the error a geometric tail would leave, is
    // below tol.
    double tol = 1e-9;
    std::size_t max_sweeps = 50000;
    // Read by nothing: checks run every sweep pair. Kept only because the
    // frozen benchmark sources in hapbench/ still set it.
    std::size_t check_every = 25;
    bool verbose = false;          // progress lines on stderr at every check

    // Continuation engine. `adaptive` starts from a small (y, z) box and
    // grows it geometrically, up to the worst-case static bounds above,
    // while a boundary shell holds `trunc_tol` or more: y on the modulating
    // marginal before any sweep, z at the first check whose error estimate
    // falls below max(tol, 1e-6), seeding the deeper box from the iterate.
    // A box whose sweeps run out is not grown. `warm` seeds the iteration
    // from a previous sweep point's exported state; `keep_state` exports
    // this solve's state for the next point.
    bool adaptive = false;
    double trunc_tol = 1e-9;
    const Solution0State* warm = nullptr;
    // Secant predictor: with the state from TWO sweep points back and the
    // parameter-step ratio theta = (p2 - p1) / (p1 - p0), the seed becomes
    // warm + theta * (warm - warm_prev) (clamped to nonnegative) — an O(step^2)
    // prediction of the new fixed point instead of warm's O(step). Ignored
    // without `warm`.
    const Solution0State* warm_prev = nullptr;
    double warm_step = 1.0;
    bool keep_state = false;

    // Cap on a box's states; 0 = none. A start box beyond it is refused
    // before it is allocated (the solve returns unswept), and an adaptive
    // growth beyond it is not taken; either sets budget_exhausted. With
    // max_sweeps and the cap box, this bounds a solve's work by its inputs
    // alone, never by the clock.
    std::size_t max_states = 0;
};

struct [[nodiscard]] Solution0Result {
    double mean_messages = 0.0;   // E[z], number in system
    double mean_rate = 0.0;       // accepted message throughput
    double mean_delay = 0.0;      // E[z] / throughput (Little)
    double utilization = 0.0;     // P(z > 0)
    double sigma = 0.0;           // arrival-rate-weighted P(arrival finds z > 0)
    double mean_users = 0.0;
    double mean_apps = 0.0;
    // Probability on the truncation shells: z == z_hi, plus y == y_hi and
    // x == x_hi unless that face is the model's own max_apps / max_users
    // (real blocking states) or users are pinned (x_lo == x_hi).
    double truncation_mass = 0.0;
    // The stop rule's last error bound on the final box, max(d, d q / (1 - q))
    // in the terms of `tol`; the last change d alone while the changes do not
    // contract, 0 before the box's second check. Below tol when the solve
    // converged, whatever capped its sweeps.
    double residual = 0.0;
    std::size_t states = 0;       // final box size
    std::size_t sweeps = 0;       // total sweeps, summed across adaptive boxes
    bool converged = false;
    // Continuation diagnostics: whether a warm state seeded the solve, how
    // many box growths the adaptive engine took, and (with keep_state) the
    // converged lattice for the next sweep point.
    bool warm_started = false;
    std::size_t box_growths = 0;
    // max_states refused a box: the start box (nothing was swept) or a
    // growth (the solve stayed on its box, and may still have converged).
    bool budget_exhausted = false;
    Solution0State state;
};

// Requires homogeneous application types and uniform message service rate
// (the paper's numerical setting; Section 3.1 notes the same restriction).
// Admission bounds in `params` are honored (arrivals beyond them blocked).
Solution0Result solve_solution0(const HapParams& params,
                                const Solution0Options& opts = {});

}  // namespace hap::core
