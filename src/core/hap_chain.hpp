// Construction of the (truncated) modulating Markov chain of a HAP — the
// paper's Fig. 6 (general, (l+1)-dimensional) and Fig. 7 (homogeneous,
// lumped to (x, y)). The chain plus its per-state message arrival rates IS
// the MMPP the paper maps HAP onto; it feeds Solution 1, the dense MMPP/QBD
// solvers, and the traffic::Mmpp generator.
#pragma once

#include <cstddef>
#include <vector>

#include "core/hap_params.hpp"
#include "markov/ctmc.hpp"
#include "numerics/matrix.hpp"
#include "traffic/mmpp.hpp"

namespace hap::core {

struct ChainBounds {
    std::size_t max_users = 0;          // inclusive upper bound on x
    std::size_t max_apps_per_type = 0;  // inclusive bound on each y_i (general)
    std::size_t max_apps_total = 0;     // inclusive bound on lumped y (homogeneous)

    // Mass-based defaults: bounds wide enough that the neglected boundary
    // probability is negligible (the paper: "boundary states have
    // probabilities very close to 0"). `spread` multiplies the standard
    // deviations added beyond the mean (default 10).
    static ChainBounds defaults_for(const HapParams& p, double spread = 10.0);
};

// Lumped homogeneous chain over states (x, y); requires
// params.homogeneous_types(). States are indexed row-major:
// idx = (x - x_lo) * (max_y + 1) + y.
class LumpedChain {
public:
    LumpedChain(const HapParams& params, const ChainBounds& bounds);
    // Same, but assembling through a caller-owned CSR builder so repeated
    // constructions (Solution 0's box growth) reuse its arenas across chains.
    LumpedChain(const HapParams& params, const ChainBounds& bounds,
                markov::CsrBuilder& builder);

    std::size_t num_states() const noexcept { return ctmc_.num_states(); }
    std::size_t index(std::size_t x, std::size_t y) const;
    std::size_t users_of(std::size_t idx) const noexcept;
    std::size_t apps_of(std::size_t idx) const noexcept;

    const std::vector<double>& arrival_rates() const noexcept { return arrival_rates_; }
    const markov::Ctmc& ctmc() const noexcept { return ctmc_; }

    // Dense generator (for QBD / traffic::Mmpp); only sensible for modest
    // state counts.
    numerics::Matrix dense_generator() const;
    traffic::Mmpp to_mmpp() const;

    // Steady-state distribution of the modulating chain by Gauss-Seidel: the
    // iterative reference that stationary() falls back to.
    markov::SolveResult solve(const markov::SolveOptions& opts = {}) const;

    // Exact (non-iterative) steady state by block-LU censoring: the lumped
    // chain is block tridiagonal in x (users arrive and depart one at a
    // time) and in y (so do apps), so eliminating levels from the top down
    // costs one LU factorization and inverse per level. Levels run along the
    // longer axis, so the dense blocks span the shorter one: y levels with
    // nx-by-nx blocks when nx < ny, otherwise x levels with ny-by-ny blocks.
    // About 0.45 ms at 21 x 51 states and 2.9 ms at hapd's 30 x 155 (1.4 and
    // 41 ms along x; best of 5 on a 4-vCPU Xeon), where Gauss-Seidel takes
    // thousands of sweeps; accurate to roundoff. Returns an empty vector if
    // the chain is not block tridiagonal or the elimination degenerates
    // numerically.
    std::vector<double> solve_direct() const;

    // The stationary law Solutions 0 and 1 use: solve_direct(), and when it
    // declines, solve() from the uniform vector to `gs_tol` (> 0). Throws
    // std::runtime_error if neither converges. iterations and residual are
    // the Gauss-Seidel fallback's, both 0 when the elimination answered.
    markov::SolveResult stationary(double gs_tol) const;

    std::size_t x_lo() const noexcept { return x_lo_; }
    std::size_t x_hi() const noexcept { return x_hi_; }
    std::size_t y_hi() const noexcept { return y_hi_; }

private:
    void build(const HapParams& params);

    std::size_t x_lo_, x_hi_, y_hi_;
    std::vector<double> arrival_rates_;
    markov::Ctmc ctmc_;
};

// General heterogeneous chain over (x, y_1, ..., y_l) with per-type bounds.
// State count is (max_users+1) * prod_i (max_apps_per_type+1); keep bounds
// small (this is the paper's Fig. 6 object, practical for few app types).
class GeneralChain {
public:
    GeneralChain(const HapParams& params, const ChainBounds& bounds);

    std::size_t num_states() const noexcept { return ctmc_.num_states(); }
    const std::vector<double>& arrival_rates() const noexcept { return arrival_rates_; }
    const markov::Ctmc& ctmc() const noexcept { return ctmc_; }
    numerics::Matrix dense_generator() const;
    traffic::Mmpp to_mmpp() const;
    markov::SolveResult solve(const markov::SolveOptions& opts = {}) const;

    // Decode a flat index into (x, y_1..y_l).
    std::vector<std::size_t> decode(std::size_t idx) const;

private:
    std::size_t index_of(const std::vector<std::size_t>& coords) const;
    void build(const HapParams& params);

    std::size_t x_lo_, x_hi_;
    std::vector<std::size_t> y_hi_;
    std::vector<std::size_t> radix_;  // mixed-radix strides
    std::vector<double> arrival_rates_;
    markov::Ctmc ctmc_;
};

namespace detail {
// Shared helper: dense generator from any finalized Ctmc.
numerics::Matrix dense_from_ctmc(const markov::Ctmc& chain);
}  // namespace detail

}  // namespace hap::core
