#include "core/solution0.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"
#include "core/hap_chain.hpp"
#include "core/lattice_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/team.hpp"

namespace hap::core {

namespace {

using detail::make_lattice_grid;
using detail::project_marginal;
using detail::read_observables;
using detail::TeamSweep;
using Grid = detail::LatticeGrid;
using Rates = detail::LatticeRates;

using Cuts = detail::TruncationCuts;
using Observables = detail::LatticeObservables;

// The hi faces of a box where the box, not the model, cuts the lattice off.
// The z face always does (the queue is unbounded). The x_hi and y_hi faces do
// not when users are pinned (x_lo == x_hi, where every state would count),
// nor at the model's own max_users / max_apps, whose states are real
// blocking states.
Cuts box_cuts(const Grid& g, const HapParams& p) {
    return {g.x_hi > g.x_lo && (p.max_users == 0 || g.x_hi < p.max_users),
            p.max_apps == 0 || g.y_hi < p.max_apps};
}

// Mass of the y == y_hi lines under the modulating marginal, which is every
// line's mass after projection.
double y_shell_mass(const Grid& g, const std::vector<double>& marginal) {
    double mass = 0.0;
    for (std::size_t xi = 0; xi < g.nx; ++xi) mass += marginal[xi * g.ny + g.y_hi];
    return mass;
}

struct BoxSolve {
    Observables obs;
    std::size_t sweeps = 0;
    double residual = 0.0;
    double sweep_s = 0.0;  // wall time inside the sweep loop (kernel telemetry)
    bool converged = false;
    bool deadline_hit = false;  // the wall_ms budget backstop fired
    bool grow = false;          // ended to double z; pi seeds the deeper box
};

// Sweep `pi` on box `g` until the stop rule's error estimate for the
// observables (delay, E[z]) drops below `tol`, or the sweep budget runs out.
// A check follows every forward + reverse pair, and a `seeded` box also
// checks its projected seed before the first sweep. A check reads the line
// moments the last projection left in `team`, and so does the read-out of
// the observables when the pass ends. With `grow_tol` > 0 the box may still
// grow in z: the first check whose estimate falls below `grow_tol` hands the
// z shell's mass to `grows`, and the pass ends there when that takes the
// deeper box, unless the sweeps or the wall time have run out. Otherwise the
// pass goes on to `tol`, so a box that still needs growing never pays for a
// tight solve.
template <class Grows>
BoxSolve solve_box(const Grid& g, const Rates& r, Cuts cuts,
                   const std::vector<double>& marginal, std::vector<double>& pi, double tol,
                   double grow_tol, Grows&& grows, std::size_t max_sweeps, bool seeded,
                   bool verbose, TeamSweep& team, const WallDeadline& deadline) {
    BoxSolve out;
    const auto loop_start = std::chrono::steady_clock::now();
    const auto finish = [&] {
        out.obs = read_observables(g, r, cuts, marginal, team.moments, pi);
        out.sweep_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    loop_start)
                          .count();
        return out;
    };
    // The last check's observables and relative changes (< 0: none yet).
    double last_delay = -1.0;
    double last_mean_z = -1.0;
    double change = -1.0;
    double prev_change = -1.0;
    // The stop rule at tolerance t; no stop before the box's second check.
    const auto rule = [&](double t) {
        return change < 0.0 ? detail::StopDecision{} : detail::stop_rule(change, prev_change, t);
    };
    // One check after sweep s: true when the estimate is below tol.
    const auto check = [&](std::size_t s) {
        const detail::CheckMoments m = detail::sum_line_moments(g, r, team.moments);
        const double delay = m.throughput > 0.0 ? m.mean_z / m.throughput : 0.0;
        if (last_delay >= 0.0) {
            const double dd = std::abs(delay - last_delay) / std::max(delay, 1e-12);
            const double dz = std::abs(m.mean_z - last_mean_z) / std::max(m.mean_z, 1e-12);
            prev_change = change;
            change = std::max(dd, dz);
        }
        last_delay = delay;
        last_mean_z = m.mean_z;
        const detail::StopDecision d = rule(tol);
        out.residual = d.residual;
        if (verbose) {
            // Formatted into a buffer so library code never calls the
            // printf output family (haplint: printf-in-library).
            char est[64] = "";
            if (change >= 0.0)
                std::snprintf(est, sizeof(est), " change %.2e error %.2e", change, d.residual);
            char line[200];
            std::snprintf(line, sizeof(line),
                          "solution0: box %zux%zux%zu sweep %zu delay %.8f mean_z %.6f%s\n",
                          g.nx, g.ny, g.nz, s, delay, m.mean_z, est);
            std::cerr << line;
        }
        return d.stop;
    };
    if (seeded) (void)check(0);
    for (std::size_t s = 1; s <= max_sweeps; ++s) {
        // The lease picks the threads, all of the team's or 1, by timing
        // both; the bytes do not depend on them.
        auto sweep = [&](std::size_t threads) {
            detail::sweep_and_project(g, r, marginal, pi, (s % 2) == 1,
                                      detail::sweep_blocks(g.nx, threads), team);
        };
        if (team.lease->run_timed(g.size(), sweep) && obs::enabled())
            obs::registry().add_counter("solution0.team_fallback");
        if (s % 2 == 0 || s == max_sweeps) {
            out.sweeps = s;
            const bool stop = check(s);
            if (grow_tol > 0.0 && rule(grow_tol).stop) {
                grow_tol = 0.0;  // the z shell is read once per box
                if (s < max_sweeps && !deadline.expired() &&
                    grows(read_observables(g, r, cuts, marginal, team.moments, pi).boundary_z)) {
                    out.grow = true;
                    return finish();
                }
            }
            out.converged = stop;
            out.deadline_hit = !stop && deadline.expired();
            if (stop || out.deadline_hit) return finish();
        }
    }
    return finish();
}

}  // namespace

Solution0Result solve_solution0(const HapParams& params, const Solution0Options& opts) {
    params.validate();
    HAP_PRECOND(opts.tol > 0.0);
    HAP_PRECOND(opts.max_sweeps > 0);
    HAP_PRECOND(opts.trunc_tol > 0.0);
    if (!params.homogeneous_types()) {
        throw std::invalid_argument("solve_solution0: homogeneous application types required");
    }
    if (!params.uniform_service()) {
        throw std::invalid_argument("solve_solution0: uniform message service rate required");
    }

    const ApplicationType& app = params.apps.front();
    Rates r{};
    r.dynamic_users = params.permanent_users == 0;
    r.lambda = params.user_arrival_rate;
    r.mu = params.user_departure_rate;
    r.alpha = static_cast<double>(params.num_app_types()) * app.arrival_rate;
    r.mu1 = app.departure_rate;
    r.beta = app.total_message_rate();
    r.mu2 = app.messages.front().service_rate;

    const double a = params.mean_users();
    const double c = r.alpha / r.mu1;  // mean apps per user
    const double mean_y = a * c;
    const double var_y = mean_y + c * c * (r.dynamic_users ? a : 0.0);

    // Worst-case static box: explicit option bounds, else the mass-based
    // defaults. In adaptive mode these act as CAPS the growth never exceeds,
    // so the adaptive solve can only be cheaper than (and is bounded by) the
    // cold fixed-box solve on this geometry.
    std::size_t cap_x_hi;
    const std::size_t x_lo = params.permanent_users;
    if (r.dynamic_users) {
        cap_x_hi = opts.max_users > 0
                       ? opts.max_users
                       : static_cast<std::size_t>(std::ceil(a + 8.0 * std::sqrt(a + 1.0) + 3.0));
        if (params.max_users > 0 && params.max_users < cap_x_hi) cap_x_hi = params.max_users;
    } else {
        cap_x_hi = x_lo;
    }
    std::size_t cap_y_hi = opts.max_apps > 0
                               ? opts.max_apps
                               : static_cast<std::size_t>(
                                     std::ceil(mean_y + 9.0 * std::sqrt(var_y) + 10.0));
    if (params.max_apps > 0 && params.max_apps < cap_y_hi) cap_y_hi = params.max_apps;

    const double rho = params.mean_message_rate() / r.mu2;
    std::size_t cap_z_hi;
    if (opts.max_messages > 0) {
        cap_z_hi = opts.max_messages;
    } else {
        // The z tail is governed by excursions of y above the service rate;
        // scale the bound with load (heavier load -> longer excursions).
        const double base = 400.0 / std::max(0.05, 1.0 - rho);
        cap_z_hi = static_cast<std::size_t>(std::min(6000.0, std::ceil(base)));
    }
    const Grid cap = make_lattice_grid(x_lo, cap_x_hi, cap_y_hi, cap_z_hi);

    // Starting box. Cold fixed-box solves start AT the cap (the pre-existing
    // behaviour, which the golden tests pin). The adaptive engine starts
    // from a small box covering the bulk of the mass — or the warm state's
    // box, which the neighboring sweep point demonstrably needed — and grows
    // geometrically until the shell mass falls below opts.trunc_tol.
    Grid g = cap;
    if (opts.adaptive) {
        std::size_t y0 =
            static_cast<std::size_t>(std::ceil(mean_y + 3.0 * std::sqrt(var_y) + 4.0));
        std::size_t z0 = 64;
        if (opts.warm != nullptr && !opts.warm->empty()) {
            y0 = std::max(y0, opts.warm->y_hi);
            z0 = std::max(z0, opts.warm->z_hi);
        }
        g = make_lattice_grid(cap.x_lo, cap.x_hi, std::min(cap.y_hi, y0),
                              std::min(cap.z_hi, z0));
    }

    Solution0Result res;
    obs::ScopedTimer timer("solution0.solve_s");

    // Budget: tighten the sweep cap and arm the wall backstop. A box beyond
    // max_states is refused before it is allocated and flagged: a refused
    // growth leaves the solve on the box it has, a refused start box leaves
    // it unseeded and unswept.
    const std::size_t max_sweeps_eff = opts.budget.cap_iterations(opts.max_sweeps);
    const WallDeadline deadline(opts.budget.wall_ms);
    const auto fits = [&](const Grid& ng) {
        if (!opts.budget.states_exceeded(ng.size())) return true;
        res.budget_exhausted = true;
        return false;
    };
    const bool start_fits = fits(g);

    // What each box's first iterate is laid out from (detail::LatticeSeed):
    // a warm state, which the neighboring sweep point demonstrably needed,
    // else a geometric queue profile at the offered load on every line (the
    // paper started from uniform); after a z growth, the last box's
    // iterate. The marginal projection that follows scales each line to its
    // exact mass.
    detail::LatticeSeed seed;
    seed.sigma = std::min(0.95, rho);
    if (start_fits && opts.warm != nullptr && !opts.warm->empty()) {
        seed.warm = &opts.warm->pi;
        seed.warm_box = make_lattice_grid(opts.warm->x_lo, opts.warm->x_hi, opts.warm->y_hi,
                                          opts.warm->z_hi);
        // Secant prediction: extrapolate along the sweep parameter from the
        // two previous converged states. The clamp keeps the seed in the
        // nonnegative cone; the projection restores exact line masses.
        if (opts.warm_prev != nullptr && !opts.warm_prev->empty() &&
            std::isfinite(opts.warm_step) && opts.warm_step > 0.0) {
            seed.prev = &opts.warm_prev->pi;
            seed.prev_box = make_lattice_grid(opts.warm_prev->x_lo, opts.warm_prev->x_hi,
                                              opts.warm_prev->y_hi, opts.warm_prev->z_hi);
            seed.theta = std::min(opts.warm_step, 4.0);
        }
        seed.box = g;
        res.warm_started = true;
        if (obs::enabled()) obs::registry().add_counter("solution0.warm_starts");
    }
    std::vector<double> pi;
    std::vector<double> iterate;  // the last box's, while it seeds a z growth

    // One team lease for every box and check of this solve. A box too
    // narrow to split leaves the team alone; a solve that finds it leased
    // runs on its own thread.
    const bool splits = start_fits && detail::sweep_blocks(g.nx, 2) > 1;
    parallel::TeamLease lease(splits);
    if (splits && !lease.held() && obs::enabled())
        obs::registry().add_counter("solution0.team_busy");
    TeamSweep team;
    team.lease = &lease;
    // One CSR builder for every modulating-chain rebuild along the y growths:
    // the assembly arenas are reused instead of re-grown per box.
    markov::CsrBuilder mod_arena;
    // Modulating-chain marginal, cached across z-only box growths (the
    // (x, y) chain — and hence its law — does not depend on z).
    std::vector<double> marginal;
    std::size_t marginal_y = static_cast<std::size_t>(-1);
    // Tolerance of the marginal's Gauss-Seidel fallback (the exact
    // elimination needs none). The marginal's error feeds every projection,
    // so it must sit well below the observable tolerance — three decades of
    // headroom — but chasing 1e-13 when observables stop at 1e-7 buys nothing.
    const double mod_tol = std::clamp(opts.tol * 1e-3, 1e-13, 1e-10);
    std::size_t total_sweeps = 0;
    double sweep_s_total = 0.0;        // kernel-loop wall time across boxes
    std::uint64_t state_updates = 0;  // sum of sweeps * box states
    BoxSolve fin;
    const auto grow = [&](const Grid& ng) {
        g = ng;
        ++res.box_growths;
        if (obs::enabled()) obs::registry().add_counter("solution0.box_growth_steps");
    };
    while (start_fits) {
        // The box's set-up, off the sweeps' critical path: the team's helpers
        // lay the seed out while the lease holder builds and solves the
        // modulating (x, y) chain, whose exact stationary law LumpedChain
        // indexes as (x - x_lo) * ny + y, like the lattice lines. Then the
        // whole team projects. These jobs run where the team's policy would
        // run a sweep, untimed.
        const std::size_t threads = lease.prefers_team() ? lease.threads() : 1;
        if (marginal_y != g.y_hi) {
            auto solve_marginal = [&] {
                ChainBounds mb;
                mb.max_users = g.x_hi;
                mb.max_apps_total = g.y_hi;
                marginal = LumpedChain(params, mb, mod_arena).stationary(mod_tol).pi;
            };
            detail::seed_lattice(g, seed, pi, threads, &lease, solve_marginal);
            marginal_y = g.y_hi;
        } else {
            detail::seed_lattice(g, seed, pi, threads, &lease);
        }

        // The projection pins every line's mass to the marginal, so the
        // y == y_hi shell's mass is known before any sweep: grow y on the
        // marginal alone (the seed is laid out afresh on the grown box), and
        // leave only z to the sweeps.
        const Grid taller = make_lattice_grid(g.x_lo, g.x_hi,
                                              std::min(cap.y_hi, (g.y_hi * 3) / 2 + 1), g.z_hi);
        if (opts.adaptive && g.y_hi < cap.y_hi &&
            y_shell_mass(g, marginal) >= opts.trunc_tol && fits(taller)) {
            grow(taller);
            continue;
        }

        const Cuts cuts = box_cuts(g, params);
        project_marginal(g, marginal, pi, threads, team);
        std::vector<double>().swap(iterate);  // laid out: free the last box's

        // One pass, which ends early to double z when the box may still grow
        // and its z shell holds trunc_tol or more once the observables have
        // settled to max(tol, 1e-6).
        const Grid deeper =
            make_lattice_grid(g.x_lo, g.x_hi, g.y_hi, std::min(cap.z_hi, g.z_hi * 2));
        const double grow_tol =
            opts.adaptive && g.z_hi < cap.z_hi ? std::max(opts.tol, 1e-6) : 0.0;
        fin = solve_box(
            g, r, cuts, marginal, pi, opts.tol, grow_tol,
            [&](double shell) { return shell >= opts.trunc_tol && fits(deeper); },
            max_sweeps_eff - total_sweeps, seed.warm != nullptr, opts.verbose, team, deadline);
        total_sweeps += fin.sweeps;
        sweep_s_total += fin.sweep_s;
        state_updates += static_cast<std::uint64_t>(fin.sweeps) * g.size();
        if (!fin.grow) break;
        // The iterate seeds the deeper box.
        pi.swap(iterate);
        seed = {.warm = &iterate, .warm_box = g, .box = g};
        grow(deeper);
    }
    // A tightened sweep cap that expired, or the wall backstop firing, is
    // budget exhaustion — distinct from the solver's own max_sweeps limit.
    if ((!fin.converged && max_sweeps_eff < opts.max_sweeps) || fin.deadline_hit)
        res.budget_exhausted = true;

    res.states = g.size();
    res.sweeps = total_sweeps;
    res.residual = fin.residual;
    res.converged = fin.converged;
    const Observables& o = fin.obs;
    res.mean_messages = o.mean_z;
    res.mean_rate = o.throughput;
    res.mean_delay = o.throughput > 0.0 ? o.mean_z / o.throughput : 0.0;
    res.utilization = o.busy;
    res.sigma = o.sigma_den > 0.0 ? o.sigma_num / o.sigma_den : 0.0;
    res.mean_users = o.mean_x;
    res.mean_apps = o.mean_y;
    res.truncation_mass = o.boundary;
    if (res.converged) {
        // Converged output feeds published tables directly.
        HAP_CHECK_FINITE(res.mean_delay);
        HAP_PRECOND(res.mean_delay >= 0.0);
        HAP_CHECK_PROB(res.utilization);
        HAP_CHECK_PROB(res.sigma);
        HAP_CHECK_PROB(res.truncation_mass);
    }
    if (obs::enabled()) {
        if (res.budget_exhausted)
            obs::registry().add_counter("solution0.budget_exhausted");
        obs::SolverTelemetry t;
        t.solver = "solution0";
        t.iterations = res.sweeps;
        t.residual = res.residual;
        t.truncation = g.z_hi;
        t.wall_time_s = timer.stop();
        t.sweep_time_s = sweep_s_total;
        t.states_per_sec = sweep_s_total > 0.0
                               ? static_cast<double>(state_updates) / sweep_s_total
                               : 0.0;
        t.converged = res.converged;
        obs::registry().record_solver(std::move(t));
    }
    if (opts.keep_state) {
        res.state.pi = std::move(pi);
        res.state.x_lo = g.x_lo;
        res.state.x_hi = g.x_hi;
        res.state.y_hi = g.y_hi;
        res.state.z_hi = g.z_hi;
    }
    return res;
}

}  // namespace hap::core
