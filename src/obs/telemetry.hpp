// Per-invocation solver diagnostics.
//
// A SolverTelemetry record captures the convergence story of one solver (or
// simulator) run: how many iterations it burned, how close it got, how large
// the truncated state space was, and whether it declared convergence. Every
// field except the wall-clock-derived trio (wall_time_s, sweep_time_s,
// states_per_sec) is a deterministic function of the solver inputs, so
// records are bit-identical across thread counts and safe to assert on in
// tests; the clock-derived fields are excluded from determinism checks.
#pragma once

#include <cstdint>
#include <string>

namespace hap::obs {

struct SolverTelemetry {
    std::string solver;   // e.g. "solution0", "qbd", "gm1.sigma", "hap_sim"
    std::string label;    // scenario / sweep-point name ("" when unscoped)
    std::uint64_t run_id = 0;      // replication id (0 for analytic solves)
    std::uint64_t iterations = 0;  // sweeps / reduction cycles / events
    double residual = 0.0;         // final residual or sigma error
    std::uint64_t truncation = 0;  // states kept / truncation level
    double wall_time_s = 0.0;      // non-deterministic; 0 when clocks skipped
    bool converged = false;
    // Sweep-kernel throughput (CSR solvers): time inside the iteration loop
    // and the states-updated-per-second it implies. Non-deterministic like
    // wall_time_s; 0 when the solver does not report them.
    double sweep_time_s = 0.0;
    double states_per_sec = 0.0;
};

}  // namespace hap::obs
