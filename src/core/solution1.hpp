// Solution 1 (paper Section 3.2.2): solve the modulating chain's steady
// state numerically (dropping the z dimension), form the arrival-rate-
// weighted mixture of exponentials as the approximate interarrival law, and
// reduce the queue to G/M/1. Homogeneous parameter sets solve the lumped
// (x, y) chain with LumpedChain::stationary — the exact block elimination
// Solution 0's marginal uses — and heterogeneous ones the GeneralChain by
// Gauss-Seidel. Exact chain probabilities, approximate
// interarrival law (correlation between successive gaps is lost — the same
// loss Solution 2 has; the two must therefore agree closely, paper: < 1%).
#pragma once

#include "core/hap_chain.hpp"
#include "core/hap_params.hpp"
#include "numerics/laplace.hpp"
#include "queueing/gm1.hpp"

namespace hap::core {

class Solution1 {
public:
    // Bounds default to ChainBounds::defaults_for(params). Keep them small
    // for heterogeneous parameter sets (the GeneralChain is a product space).
    explicit Solution1(HapParams params);
    Solution1(HapParams params, const ChainBounds& bounds);

    const HapParams& params() const noexcept { return params_; }

    // Mean message rate under the truncated chain's stationary law.
    double mean_rate() const noexcept { return lambda_bar_; }
    // The mixture interarrival law and its transform.
    const numerics::ExponentialMixture& mixture() const noexcept { return mixture_; }
    double laplace(double s) const { return mixture_.transform(s); }
    double interarrival_density(double t) const { return mixture_.density(t); }
    double interarrival_cdf(double t) const { return mixture_.cdf(t); }

    // Stationary mean numbers of users / applications (cross-checks against
    // the M/M/inf closed forms a and a*sum b_i).
    double mean_users() const noexcept { return mean_users_; }
    double mean_apps() const noexcept { return mean_apps_; }

    queueing::Gm1Result solve_queue(double service_rate) const;

    std::size_t chain_states() const noexcept { return chain_states_; }

private:
    void analyze(const std::vector<double>& pi, const std::vector<double>& rates,
                 const std::vector<double>& users, const std::vector<double>& apps);

    HapParams params_;
    numerics::ExponentialMixture mixture_;
    double lambda_bar_ = 0.0;
    double mean_users_ = 0.0;
    double mean_apps_ = 0.0;
    std::size_t chain_states_ = 0;
};

}  // namespace hap::core
