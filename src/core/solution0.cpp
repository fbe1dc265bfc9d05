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
using detail::measure_lattice;
using detail::project_marginal;
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

void normalize(std::vector<double>& pi) {
    double total = 0.0;
    for (double v : pi) total += v;
    const double inv = 1.0 / total;
    for (double& v : pi) v *= inv;
}

// Zero-pad / crop a lattice from one box onto another: overlapping
// (x, y, z) cells are copied, everything else starts at zero. The
// project_marginal pass that follows repairs the line masses against the new
// box's exact modulating marginal, so a grown (or neighboring sweep point's)
// box starts from the previous solution instead of the geometric cold-start
// profile.
void remap_state(const std::vector<double>& src, const Grid& from, const Grid& to,
                 std::vector<double>& dst) {
    dst.assign(to.size(), 0.0);
    const std::size_t x0 = std::max(from.x_lo, to.x_lo);
    const std::size_t y1 = std::min(from.y_hi, to.y_hi);
    const std::size_t z1 = std::min(from.z_hi, to.z_hi);
    for (std::size_t x = x0; x <= std::min(from.x_hi, to.x_hi); ++x) {
        for (std::size_t y = 0; y <= y1; ++y) {
            const double* s = src.data() + from.idx(x, y, 0);
            double* d = dst.data() + to.idx(x, y, 0);
            for (std::size_t z = 0; z <= z1; ++z) d[z] = s[z];
        }
    }
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
};

// What the stop rule carries from one check on the current box to the
// next. A box keeps one history across its coarse and final passes, so the
// final pass's first check already completes a comparison.
struct CheckHistory {
    double delay = -1.0;   // < 0: no check on this box yet
    double mean_z = -1.0;
    double change = -1.0;  // relative change at the last check; < 0: none yet
};

// Sweep `pi` on box `g` until the stop rule's error estimate for the
// observables (delay, E[z]) drops below `tol`, or the sweep budget runs out.
// A check follows every forward + reverse pair, and a `seeded` box with no
// history also checks its projected seed before the first sweep. A check
// reads the line moments the last projection left in `team`; measure_lattice
// runs once, when the pass ends. Continues from the current content of `pi`
// and of `hist`, so callers can chain calls — a loose coarse solve, then a
// tight one on the same box — without restarting the iteration or its
// convergence history.
BoxSolve solve_box(const Grid& g, const Rates& r, Cuts cuts,
                   const std::vector<double>& marginal, std::vector<double>& pi, double tol,
                   std::size_t max_sweeps, bool seeded, const char* pass, bool verbose,
                   TeamSweep& team, const WallDeadline& deadline, CheckHistory& hist) {
    BoxSolve out;
    const auto loop_start = std::chrono::steady_clock::now();
    const auto finish = [&] {
        out.obs = measure_lattice(g, r, cuts, pi);
        out.sweep_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                    loop_start)
                          .count();
        return out;
    };
    // One check after sweep s: true when the solve may stop.
    const auto check = [&](std::size_t s) {
        const detail::CheckMoments m = detail::sum_line_moments(g, r, team.moments);
        const double delay = m.throughput > 0.0 ? m.mean_z / m.throughput : 0.0;
        const CheckHistory prev = hist;
        hist.delay = delay;
        hist.mean_z = m.mean_z;
        bool stop = false;
        if (prev.delay >= 0.0) {
            const double dd = std::abs(delay - prev.delay) / std::max(delay, 1e-12);
            const double dz = std::abs(m.mean_z - prev.mean_z) / std::max(m.mean_z, 1e-12);
            hist.change = std::max(dd, dz);
            const detail::StopDecision d = detail::stop_rule(hist.change, prev.change, tol);
            out.residual = d.residual;
            stop = d.stop;
        }
        if (verbose) {
            // Formatted into a buffer so library code never calls the
            // printf output family (haplint: no-printf-in-library).
            char rule[64] = "";
            if (prev.delay >= 0.0)
                std::snprintf(rule, sizeof(rule), " change %.2e error %.2e", hist.change,
                              out.residual);
            char line[200];
            std::snprintf(line, sizeof(line),
                          "solution0: %s box %zux%zux%zu sweep %zu delay %.8f mean_z %.6f%s\n",
                          pass, g.nx, g.ny, g.nz, s, delay, m.mean_z, rule);
            std::cerr << line;
        }
        return stop;
    };
    if (seeded && hist.delay < 0.0) (void)check(0);
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
            if (check(s)) {
                out.converged = true;
                return finish();
            }
            if (deadline.expired()) {
                out.deadline_hit = true;
                return finish();
            }
        }
    }
    out.sweeps = max_sweeps;
    normalize(pi);
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

    // Budget: tighten the sweep cap, arm the wall backstop, and refuse a
    // starting box beyond max_states before allocating it (adaptive growths
    // are suppressed separately below).
    const std::size_t max_sweeps_eff = opts.budget.cap_iterations(opts.max_sweeps);
    const WallDeadline deadline(opts.budget.wall_ms);
    if (opts.budget.states_exceeded(g.size())) {
        res.states = g.size();
        res.budget_exhausted = true;
        if (obs::enabled()) {
            obs::registry().add_counter("solution0.budget_exhausted");
            obs::SolverTelemetry t;
            t.solver = "solution0";
            t.truncation = g.z_hi;
            t.wall_time_s = timer.stop();
            t.converged = false;
            obs::registry().record_solver(std::move(t));
        }
        return res;
    }

    std::vector<double> pi;
    bool have_seed = false;
    if (opts.warm != nullptr && !opts.warm->empty()) {
        const Grid from = make_lattice_grid(opts.warm->x_lo, opts.warm->x_hi,
                                            opts.warm->y_hi, opts.warm->z_hi);
        remap_state(opts.warm->pi, from, g, pi);
        // Secant prediction: extrapolate along the sweep parameter from the
        // two previous converged states. The clamp keeps the seed in the
        // nonnegative cone; the marginal projection below restores exact
        // line masses.
        if (opts.warm_prev != nullptr && !opts.warm_prev->empty() &&
            std::isfinite(opts.warm_step) && opts.warm_step > 0.0) {
            const double theta = std::min(opts.warm_step, 4.0);
            const Grid pfrom =
                make_lattice_grid(opts.warm_prev->x_lo, opts.warm_prev->x_hi,
                                  opts.warm_prev->y_hi, opts.warm_prev->z_hi);
            std::vector<double> prev;
            remap_state(opts.warm_prev->pi, pfrom, g, prev);
            for (std::size_t i = 0; i < pi.size(); ++i)
                pi[i] = std::max(0.0, pi[i] + theta * (pi[i] - prev[i]));
        }
        have_seed = true;
        res.warm_started = true;
        if (obs::enabled()) obs::registry().add_counter("solution0.warm_starts");
    }

    // One team lease for every box and check of this solve. A box too
    // narrow to split leaves the team alone; a solve that finds it leased
    // runs on its own thread.
    const bool splits = detail::sweep_blocks(g.nx, 2) > 1;
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
    // Move to the grown box `ng`, carrying a seeded iterate over. A growth
    // that would blow max_states is refused and flagged; the solve goes on
    // on the current box.
    const auto grow = [&](const Grid& ng) {
        if (opts.budget.states_exceeded(ng.size())) {
            res.budget_exhausted = true;
            return false;
        }
        if (have_seed) {
            std::vector<double> grown;
            remap_state(pi, g, ng, grown);
            pi.swap(grown);
        }
        g = ng;
        ++res.box_growths;
        if (obs::enabled()) obs::registry().add_counter("solution0.box_growth_steps");
        return true;
    };
    while (true) {
        // Exact stationary law of the modulating (x, y) chain on this box;
        // LumpedChain uses the identical (x - x_lo) * ny + y indexing.
        if (marginal_y != g.y_hi) {
            ChainBounds mb;
            mb.max_users = g.x_hi;
            mb.max_apps_total = g.y_hi;
            marginal = LumpedChain(params, mb, mod_arena).stationary(mod_tol).pi;
            marginal_y = g.y_hi;
        }

        // The projection pins every line's mass to the marginal, so the
        // y == y_hi shell's mass is known before any sweep: grow y on the
        // marginal alone, and leave only z to the coarse passes.
        if (opts.adaptive && g.y_hi < cap.y_hi &&
            y_shell_mass(g, marginal) >= opts.trunc_tol &&
            grow(make_lattice_grid(g.x_lo, g.x_hi, std::min(cap.y_hi, (g.y_hi * 3) / 2 + 1),
                                   g.z_hi)))
            continue;

        if (!have_seed) {
            // Initial guess: a geometric queue profile at the offered load
            // on every line (the paper started from uniform); the marginal
            // projection below scales each line to its exact mass.
            pi.assign(g.size(), 0.0);
            const double sigma0 = std::min(0.95, rho);
            for (std::size_t line = 0; line < g.nx * g.ny; ++line) {
                double zt = 1.0;
                double* cur = pi.data() + line * g.nz;
                for (std::size_t z = 0; z < g.nz; ++z) {
                    cur[z] = zt;
                    zt *= sigma0;
                }
            }
        }

        const Cuts cuts = box_cuts(g, params);
        project_marginal(g, marginal, pi, &team.moments);

        std::size_t budget = max_sweeps_eff - total_sweeps;
        if (budget == 0) {
            normalize(pi);
            fin.obs = measure_lattice(g, r, cuts, pi);
            fin.converged = false;
            break;
        }

        CheckHistory hist;
        if (opts.adaptive && g.z_hi < cap.z_hi) {
            // Coarse pass: settle the observables loosely, then read the
            // z shell's mass off the coarse solution to decide growth. A box
            // that still needs growing never pays for a tight solve.
            const double coarse_tol = std::max(opts.tol, 1e-6);
            const BoxSolve b = solve_box(g, r, cuts, marginal, pi, coarse_tol, budget,
                                         have_seed, "coarse", opts.verbose, team, deadline,
                                         hist);
            total_sweeps += b.sweeps;
            sweep_s_total += b.sweep_s;
            state_updates += static_cast<std::uint64_t>(b.sweeps) * g.size();
            if (b.deadline_hit) {
                fin = b;
                break;
            }
            have_seed = true;  // the coarse iterate seeds what follows
            if (b.obs.boundary_z >= opts.trunc_tol &&
                grow(make_lattice_grid(g.x_lo, g.x_hi, g.y_hi, std::min(cap.z_hi, g.z_hi * 2))))
                continue;
            // The z shell is below trunc_tol (or max_states refused its
            // growth): this box is final. Its coarse pass may have settled
            // to opts.tol already; otherwise tighten, continuing from the
            // coarse iterate and its last check.
            budget = max_sweeps_eff - total_sweeps;
            if (budget == 0 || (b.converged && b.residual < opts.tol)) {
                fin = b;
                break;
            }
        }

        fin = solve_box(g, r, cuts, marginal, pi, opts.tol, budget, have_seed, "final",
                        opts.verbose, team, deadline, hist);
        total_sweeps += fin.sweeps;
        sweep_s_total += fin.sweep_s;
        state_updates += static_cast<std::uint64_t>(fin.sweeps) * g.size();
        break;
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
