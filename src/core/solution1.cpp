#include "core/solution1.hpp"

#include <map>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::core {

namespace {

void record_build(std::size_t states, std::size_t iterations, double residual,
                  obs::ScopedTimer& timer) {
    if (!obs::enabled()) return;
    obs::SolverTelemetry t;
    t.solver = "solution1";
    t.iterations = iterations;
    t.residual = residual;
    t.truncation = states;
    t.wall_time_s = timer.stop();
    t.converged = true;  // non-convergence throws before this point
    obs::registry().record_solver(std::move(t));
}

}  // namespace

Solution1::Solution1(HapParams params)
    : Solution1(std::move(params), ChainBounds{}) {}

Solution1::Solution1(HapParams params, const ChainBounds& bounds)
    : params_(std::move(params)) {
    params_.validate();
    ChainBounds b = bounds;
    if (b.max_users == 0 && b.max_apps_total == 0 && b.max_apps_per_type == 0)
        b = ChainBounds::defaults_for(params_);

    obs::ScopedTimer timer("solution1.build_s");
    markov::SolveResult sol;
    if (params_.homogeneous_types()) {
        const LumpedChain chain(params_, b);
        // Gauss-Seidel backs the exact elimination up at its default tolerance.
        sol = chain.stationary(markov::SolveOptions{}.tol);
        chain_states_ = chain.num_states();
        std::vector<double> users(chain.num_states());
        std::vector<double> apps(chain.num_states());
        for (std::size_t s = 0; s < chain.num_states(); ++s) {
            users[s] = static_cast<double>(chain.users_of(s));
            apps[s] = static_cast<double>(chain.apps_of(s));
        }
        analyze(sol.pi, chain.arrival_rates(), users, apps);
    } else {
        const GeneralChain chain(params_, b);
        sol = chain.solve();
        if (!sol.converged)
            throw std::runtime_error("Solution1: steady-state solve did not converge");
        chain_states_ = chain.num_states();
        std::vector<double> users(chain.num_states());
        std::vector<double> apps(chain.num_states());
        for (std::size_t s = 0; s < chain.num_states(); ++s) {
            const std::vector<std::size_t> coords = chain.decode(s);
            users[s] = static_cast<double>(coords[0]);
            double total = 0.0;
            for (std::size_t i = 1; i < coords.size(); ++i)
                total += static_cast<double>(coords[i]);
            apps[s] = total;
        }
        analyze(sol.pi, chain.arrival_rates(), users, apps);
    }
    record_build(chain_states_, sol.iterations, sol.residual, timer);
}

void Solution1::analyze(const std::vector<double>& pi, const std::vector<double>& rates,
                        const std::vector<double>& users, const std::vector<double>& apps) {
    // lambda-bar = sum_s pi(s) r(s); mixture weight of rate r is
    // pi(s) r(s) / lambda-bar (paper Eq. 3). States sharing one arrival rate
    // are merged so the mixture stays compact.
    lambda_bar_ = 0.0;
    mean_users_ = 0.0;
    mean_apps_ = 0.0;
    std::map<double, double> mass_by_rate;
    for (std::size_t s = 0; s < pi.size(); ++s) {
        lambda_bar_ += pi[s] * rates[s];
        mean_users_ += pi[s] * users[s];
        mean_apps_ += pi[s] * apps[s];
        if (rates[s] > 0.0) mass_by_rate[rates[s]] += pi[s] * rates[s];
    }
    if (lambda_bar_ <= 0.0) {
        throw std::runtime_error("Solution1: degenerate chain (zero arrival rate)");
    }
    HAP_CHECK_FINITE(lambda_bar_);
    HAP_CHECK_FINITE(mean_users_);
    HAP_CHECK_FINITE(mean_apps_);

    mixture_.weights.clear();
    mixture_.rates.clear();
    mixture_.weights.reserve(mass_by_rate.size());
    mixture_.rates.reserve(mass_by_rate.size());
    for (const auto& [rate, mass] : mass_by_rate) {
        mixture_.rates.push_back(rate);
        mixture_.weights.push_back(mass / lambda_bar_);
        // Each mixture weight is the probability an arrival comes from a
        // state with this rate; together they must form a distribution.
        HAP_CHECK_PROB(mixture_.weights.back());
    }
}

queueing::Gm1Result Solution1::solve_queue(double service_rate) const {
    HAP_CHECK_FINITE(service_rate);
    HAP_PRECOND(service_rate > 0.0);
    return queueing::solve_gm1([this](double s) { return laplace(s); }, service_rate,
                               lambda_bar_);
}

}  // namespace hap::core
