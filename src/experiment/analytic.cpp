#include "experiment/analytic.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "experiment/faultinject.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace hap::experiment {

namespace {

// One solve, with the exception captured instead of propagated: inside the
// fallback chain a throwing hop is just a failed hop.
struct Attempt {
    bool threw = false;
    std::string what;
    core::Solution0Result r;
};

Attempt try_solve(const core::HapParams& params, const core::Solution0Options& o) {
    Attempt a;
    try {
        a.r = core::solve_solution0(params, o);
    } catch (const std::exception& e) {
        a.threw = true;
        a.what = e.what();
    }
    return a;
}

}  // namespace

std::vector<AnalyticPointResult> run_analytic_sweep(const std::vector<AnalyticPoint>& grid,
                                                    const AnalyticSweepOptions& opts,
                                                    std::vector<FailureRecord>* failures) {
    if (grid.empty())
        throw std::invalid_argument("run_analytic_sweep: empty grid");

    std::vector<AnalyticPointResult> out;
    out.reserve(grid.size());

    // The continuation chain handed from point to point: the last two
    // converged states and their sweep coordinates. keep_state is forced on
    // while warm starts are active so every point exports its lattice for
    // the next one; the states are dropped with the locals.
    core::Solution0State carry;       // previous point
    core::Solution0State carry_prev;  // two points back (secant predictor)
    double coord1 = 0.0;
    double coord0 = 0.0;
    if (opts.warm_start && opts.seed != nullptr && !opts.seed->empty()) {
        // External seed (a cached neighbor's state): the first point warm-
        // starts exactly as if the seed had been the previous chain point.
        carry = *opts.seed;
        coord1 = opts.seed_coord;
    }
    std::size_t cold_sweeps = 0;  // first point's cost = the cold baseline
    std::size_t failed_points = 0;
    for (std::size_t idx = 0; idx < grid.size(); ++idx) {
        const AnalyticPoint& pt = grid[idx];
        core::Solution0Options o = opts.solver;
        o.adaptive = opts.adaptive;
        // Without the warm chain the exported state is simply each point's
        // own converged lattice (keep_state passes through untouched below).
        o.keep_state = opts.export_states;
        if (opts.warm_start) {
            o.keep_state = true;
            if (!carry.empty()) {
                o.warm = &carry;
                const double d1 = pt.coord - coord1;
                const double d0 = coord1 - coord0;
                if (!carry_prev.empty() && d0 != 0.0 && d1 != 0.0 &&  // haplint: allow(float-equality) exact-zero guards before dividing by d0
                    std::isfinite(d1 / d0) && d1 / d0 > 0.0) {
                    o.warm_prev = &carry_prev;
                    o.warm_step = d1 / d0;
                }
            }
        }
        obs::ScopedLabel scope(pt.name);

        // Primary attempt. Injected faults (noconv / budget / throw) are
        // applied here and ONLY here; the fallback hops below always run
        // clean, which is what makes chain recovery testable.
        Attempt att;
        if (fault_fires(FaultKind::Throw, pt.name, 0)) {
            att.threw = true;
            att.what = "injected fault: throw@" + pt.name;
        } else {
            core::Solution0Options prim = o;
            if (fault_fires(FaultKind::NoConverge, pt.name, 0)) prim.max_sweeps = 1;
            if (fault_fires(FaultKind::Budget, pt.name, 0)) prim.budget.max_iterations = 1;
            att = try_solve(pt.params, prim);
        }

        bool converged = !att.threw && att.r.converged;
        bool have_result = !att.threw;
        core::Solution0Result best = std::move(att.r);  // last non-throwing attempt
        std::string last_err = att.threw ? att.what : std::string();

        // Fallback chain: each hop discards more of the machinery that could
        // itself be the failure — first the warm seed, then the adaptive box
        // (worst-case static geometry, doubled sweep budget).
        std::size_t hops = 0;
        for (int hop = 1; opts.fallback && !converged && hop <= 2; ++hop) {
            core::Solution0Options fb = opts.solver;
            fb.keep_state = o.keep_state;
            fb.adaptive = hop == 1 ? opts.adaptive : false;
            if (hop == 2) fb.max_sweeps = opts.solver.max_sweeps * 2;
            if (obs::enabled()) obs::registry().add_counter("experiment.fallback.attempts");
            Attempt a = try_solve(pt.params, fb);
            ++hops;
            if (a.threw) {
                last_err = a.what;
            } else {
                have_result = true;
                converged = a.r.converged;
                best = std::move(a.r);
            }
        }

        AnalyticPointResult res;
        res.name = pt.name;
        res.fallback_hops = hops;
        if (converged) {
            res.s0 = std::move(best);
            if (hops > 0 && obs::enabled())
                obs::registry().add_counter("experiment.fallback.recovered");
        } else if (have_result) {
            res.quality = "degraded";
            res.s0 = std::move(best);
            res.error = last_err.empty() ? "fallback chain exhausted without convergence"
                                         : last_err;
            if (obs::enabled()) obs::registry().add_counter("experiment.fallback.degraded");
        } else {
            res.quality = "failed";
            res.error = last_err;
            ++failed_points;
            if (obs::enabled()) obs::registry().add_counter("experiment.fallback.failed");
            if (failures != nullptr) {
                FailureRecord f;
                f.scenario = pt.name;
                f.run_id = 0;
                f.job_index = idx;
                f.master_seed = 0;
                f.component = sim::component_id(pt.name);
                f.stage = "analytic";
                f.what = last_err;
                failures->push_back(std::move(f));
            }
        }

        if (opts.warm_start) {
            if (res.quality == "ok") {
                if (res.s0.warm_started) {
                    if (obs::enabled()) {
                        obs::registry().add_counter("experiment.warm_starts");
                        if (res.s0.sweeps < cold_sweeps)
                            obs::registry().add_counter("experiment.iterations_saved",
                                                        cold_sweeps - res.s0.sweeps);
                    }
                } else {
                    cold_sweeps = res.s0.sweeps;
                }
                carry_prev = std::move(carry);
                coord0 = coord1;
                carry = std::move(res.s0.state);
                coord1 = pt.coord;
                // export_states hands the caller a copy; the chain keeps the
                // original for the next point's warm start.
                res.s0.state = opts.export_states ? carry : core::Solution0State{};
            } else {
                // Never continue from a degraded/failed point: drop the chain
                // so the next point cold-starts from the product-form guess.
                carry = core::Solution0State{};
                carry_prev = core::Solution0State{};
                coord1 = 0.0;
                coord0 = 0.0;
            }
        }
        out.push_back(std::move(res));
    }
    if (failed_points == grid.size()) {
        throw std::runtime_error("run_analytic_sweep: all " +
                                 std::to_string(grid.size()) + " points failed; first: " +
                                 out.front().error);
    }
    return out;
}

}  // namespace hap::experiment
