// Deterministic resource budgets for Solution 0's lattice solve.
//
// A SolveBudget caps how much work a single solve may do before it stops at a
// CHECKABLE boundary — a result flagged `budget_exhausted` — instead of
// hanging a pool thread on a pathological grid point. Two of the three caps
// are deterministic (iteration and state-space counts depend only on the
// inputs, never on machine speed), so budget exhaustion reproduces
// bit-identically across thread counts and hosts; the wall-clock cap is an
// explicitly non-deterministic last-resort backstop for operators who care
// more about the sweep finishing than about replaying the exact failure.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace hap::core {

struct SolveBudget {
    // Hard cap on Solution 0 lattice sweeps. Tightens the solve's own
    // max_sweeps; 0 = unlimited.
    std::size_t max_iterations = 0;
    // Hard cap on the truncated state-space size. A solve whose lattice
    // exceeds this refuses to allocate and returns budget_exhausted,
    // and adaptive truncation growth never crosses it. 0 = unlimited.
    std::size_t max_states = 0;
    // Wall-clock backstop in milliseconds, checked at the solver's existing
    // convergence-check boundaries. NOT deterministic — use the caps above
    // when reproducibility matters. 0 = unlimited.
    std::uint64_t wall_ms = 0;

    // The iteration cap combined with a solver's own limit.
    std::size_t cap_iterations(std::size_t solver_max) const noexcept {
        if (max_iterations == 0) return solver_max;
        return max_iterations < solver_max ? max_iterations : solver_max;
    }

    // True when a state space of `n` states may not be solved under this
    // budget.
    bool states_exceeded(std::size_t n) const noexcept {
        return max_states > 0 && n > max_states;
    }
};

// The wall-clock backstop of a solve budget, evaluated lazily at check
// boundaries (one clock read per check, none when unarmed). Deterministic
// budgets (iterations, states) are preferred; this exists so an operator can
// bound a sweep's wall time no matter what.
class WallDeadline {
public:
    explicit WallDeadline(std::uint64_t wall_ms) {
        if (wall_ms > 0) {
            armed_ = true;
            deadline_ = std::chrono::steady_clock::now() + std::chrono::milliseconds(wall_ms);
        }
    }
    bool expired() const {
        return armed_ && std::chrono::steady_clock::now() >= deadline_;
    }

private:
    bool armed_ = false;
    std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace hap::core
