// Matrix-geometric (Neuts) solver for the MMPP/M/1 queue, viewed as a
// quasi-birth-death process: level = number in system, phase = modulating
// state. The paper cites Neuts' algorithmic approach [14, 15]; we implement
// it as "Solution 3", an exact alternative to the brute-force Solution 0 once
// the modulating chain is truncated — the level dimension is handled
// analytically through the geometric tail pi_k = pi_0 R^k.
#pragma once

#include <vector>

#include "numerics/matrix.hpp"

namespace hap::markov {

struct [[nodiscard]] QbdResult {
    numerics::Matrix r;             // Neuts' rate matrix
    std::vector<double> pi0;        // boundary (level 0) distribution
    double mean_level = 0.0;        // E[number in system]
    double mean_rate = 0.0;         // stationary mean arrival rate
    double mean_delay = 0.0;        // E[time in system] via Little
    double utilization = 0.0;       // P(level > 0)
    double residual = 0.0;          // final row-sum defect of G (see solver)
    int iterations = 0;
    bool stable = false;
    bool converged = false;  // reduction hit tol 1e-13 within 100000 iterations
};

// Solve the MMPP/M/1 queue. `phase_generator` is the modulating chain's
// generator Q (n x n), `arrival_rates` the per-phase Poisson rates, and
// `service_rate` the exponential server rate. Throws std::invalid_argument on
// malformed input; an unstable queue (rho >= 1) is reported via
// `stable == false` with the partial R matrix.
QbdResult solve_mmpp_m1(const numerics::Matrix& phase_generator,
                        const std::vector<double>& arrival_rates,
                        double service_rate);

}  // namespace hap::markov
