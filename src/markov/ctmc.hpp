// Sparse continuous-time Markov chains over enumerated state spaces, with
// iterative steady-state solvers: Gauss-Seidel sweeps on the balance
// equations and uniformized power iteration. The chains solved here are
// truncated HAP modulating chains: a few thousand states with a handful of
// transitions each. Gauss-Seidel solves the heterogeneous (general) chain and
// backs up the lumped chain's exact elimination (LumpedChain::stationary);
// the power solver is a test oracle.
//
// Storage is the CSR engine of markov/sparse.hpp: transitions stream into a
// CsrBuilder (optionally a caller-shared one, so Solution 0's box growth
// reuses arenas across rebuilds) and finalize() assembles the out-matrix and
// its transpose (the in-matrix the Gauss-Seidel kernel sweeps). Both solvers
// are serial: one fixed sweep order, so a solve is a pure function of its
// inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"
#include "markov/sparse.hpp"

namespace hap::markov {

// Build with add_transition, then finalize() once before solving.
class Ctmc {
public:
    explicit Ctmc(std::size_t num_states);
    // Same, but assembling through a caller-owned builder so repeated chain
    // constructions (Solution 0's box growth) reuse its arenas. The builder must
    // outlive finalize() and carries one chain at a time.
    Ctmc(std::size_t num_states, CsrBuilder& builder);

    void add_transition(std::size_t from, std::size_t to, double rate);

    void finalize();
    bool finalized() const noexcept { return finalized_; }

    std::size_t num_states() const noexcept { return n_; }

    // Hot-path accessor: contract-guarded, not bounds-checked — the solver
    // kernels index it millions of times per sweep.
    double exit_rate(std::size_t s) const {
        HAP_PRECOND(finalized_ && s < n_);
        return exit_rates_[s];
    }
    const std::vector<double>& exit_rates() const noexcept { return exit_rates_; }

    // In-edges of state s, ascending by source (one row of the in-matrix).
    struct InEdges {
        const std::uint32_t* from;
        const double* rate;
        std::size_t count;
    };
    InEdges in_edges(std::size_t s) const;

    // Out-edges of state s, ascending by destination (one row of the
    // out-matrix).
    struct OutEdges {
        const std::uint32_t* to;
        const double* rate;
        std::size_t count;
    };
    OutEdges out_edges(std::size_t s) const;

    // The assembled in-matrix (finalize() first): transpose of the out rows,
    // the layout the Gauss-Seidel kernels stream.
    const Csr& in_matrix() const;

private:
    CsrBuilder& builder() noexcept { return shared_ != nullptr ? *shared_ : own_builder_; }

    std::size_t n_;
    bool finalized_ = false;
    CsrBuilder own_builder_;
    CsrBuilder* shared_ = nullptr;
    std::vector<double> exit_rates_;
    Csr out_;
    Csr in_;
};

struct SolveOptions {
    double tol = 1e-12;  // max relative change per sweep
};

struct [[nodiscard]] SolveResult {
    std::vector<double> pi;
    std::size_t iterations = 0;
    double residual = 0.0;  // last observed max relative change
    bool converged = false;
    std::size_t accelerations = 0;  // accepted Aitken extrapolations
};

// Both solvers check convergence every 10 iterations and give up after
// 200000. At each check that has not converged they attempt an Aitken
// delta-squared extrapolation. It is guarded: an extrapolated vector that
// leaves the probability simplex (negative mass, non-finite entries) is
// discarded and plain iteration continues, so acceleration can only change
// how fast the fixed point is reached, never which fixed point.

// Serial natural-order Gauss-Seidel (gs_sweep_natural) on
// pi(s) = sum_in pi(s') rate(s'->s) / exit_rate(s), with periodic
// normalization. Matches the paper's iterative scheme for
// Solution 0/1 but converges substantially faster thanks to in-place sweeps.
SolveResult solve_steady_state(const Ctmc& chain, const SolveOptions& opts = {});

// Uniformized power iteration (Jacobi-style): pi <- pi P with
// P = I + Q / Lambda, Lambda > max exit rate. Slower but embarrassingly
// simple; retained as an independent cross-check of the Gauss-Seidel path.
SolveResult solve_steady_state_power(const Ctmc& chain, const SolveOptions& opts = {});

}  // namespace hap::markov
