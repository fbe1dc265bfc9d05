// Analytic (Solution 0) parameter sweeps with continuation: grid points are
// solved IN GRID ORDER and each solve is seeded with the previous point's
// converged lattice (warm start) on an adaptively grown truncation box.
// Neighboring sweep points differ by one small parameter step, so their
// stationary vectors are nearly identical — the previous state, laid out on
// the new box and projected onto its modulating marginal, lands the
// iteration next to the new fixed point and the observable check converges
// in a handful of sweeps instead of a cold solve's hundreds.
//
// The chain is sequential by design (continuation is a chain, not a
// fan-out); the simulation sweeps in ExperimentRunner::run_all stay on the
// thread pool, and the two sides are independent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/hap_params.hpp"
#include "core/solution0.hpp"
#include "experiment/failure.hpp"

namespace hap::experiment {

struct AnalyticPoint {
    std::string name;  // sweep-point label, e.g. "sweep.service=17.lambda=0.8"
    core::HapParams params;
    // Scalar sweep coordinate (the value stepped along the grid, e.g. the
    // lambda scale). With three consecutive distinct coordinates the sweep
    // upgrades the warm start to a secant predictor — extrapolating the
    // previous two states along the parameter — which lands the seed
    // O(step^2) from the new fixed point. Leave 0 on every point to disable.
    double coord = 0.0;
};

struct AnalyticSweepOptions {
    bool warm_start = true;  // feed each point the previous converged state
    bool adaptive = true;    // grow the truncation box instead of worst-case
    // Per-point fallback chain on a failed/non-converged primary solve:
    //   warm -> cold restart -> worst-case box -> marked degraded, every hop
    //   under the same solver.max_sweeps and solver.max_states. (The
    //   modulating marginal needs no hop of its own: its exact
    //   elimination is residual-checked, and Gauss-Seidel takes over inside
    //   LumpedChain::stationary when it declines.)
    // Each hop bumps `experiment.fallback.attempts`; a hop that converges
    // bumps `experiment.fallback.recovered`.
    bool fallback = true;
    // Per-point solver settings (tol, bounds, trunc_tol, ...). The warm /
    // keep_state / adaptive fields are managed by the sweep itself.
    core::Solution0Options solver;
    // External continuation seed: warm-start the FIRST point of the chain
    // from a state solved outside this call (the hapd operating-point cache
    // hands in its nearest solved neighbor here). `seed_coord` is that
    // state's sweep coordinate, which arms the secant predictor as soon as
    // the chain has a second state. Ignored unless warm_start is on; the
    // pointee must outlive the call.
    const core::Solution0State* seed = nullptr;
    double seed_coord = 0.0;
    // Leave each converged point's lattice state in its result
    // (AnalyticPointResult::s0.state) instead of dropping it with the chain,
    // so callers can cache states for future warm starts. Costs one copy of
    // the lattice per point; off for plain sweeps.
    bool export_states = false;
};

struct [[nodiscard]] AnalyticPointResult {
    std::string name;
    core::Solution0Result s0;
    // Fault-tolerance annotations. quality is "ok" (converged, possibly via
    // fallback hops), "degraded" (best non-converged numbers the chain could
    // produce — use with care), or "failed" (no usable result; s0 is
    // default-constructed and `error` holds the last exception text).
    std::string quality = "ok";
    std::size_t fallback_hops = 0;  // chain hops taken past the primary solve
    std::string error;

    bool failed() const noexcept { return quality == "failed"; }
};

// Solve every grid point in order. Telemetry (when metrics are enabled):
// each point's solve is recorded under its name via obs::ScopedLabel;
// `experiment.warm_starts` counts points seeded from a neighbor and
// `experiment.iterations_saved` accumulates the sweep-count reduction
// relative to the first (cold) point of the chain.
//
// A point whose primary solve throws or fails to converge walks the fallback
// chain (see AnalyticSweepOptions::fallback) instead of aborting the sweep;
// a point that still ends "failed" resets the continuation carry (the next
// point cold-starts) and, when `failures` is given, appends one
// FailureRecord (stage "analytic", job_index = grid index). Throws
// std::runtime_error only when EVERY point failed. Injected faults
// (noconv/throw, see experiment/faultinject.hpp) apply to the primary
// attempt only, so the chain's recovery is observable.
std::vector<AnalyticPointResult> run_analytic_sweep(const std::vector<AnalyticPoint>& grid,
                                                    const AnalyticSweepOptions& opts = {},
                                                    std::vector<FailureRecord>* failures = nullptr);

}  // namespace hap::experiment
