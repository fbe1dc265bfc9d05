// Closed-form M/M/1 results: the Poisson baseline every HAP experiment is
// compared against.
#pragma once

#include <stdexcept>

#include "core/contracts.hpp"

namespace hap::queueing {

struct Mm1 {
    double lambda = 0.0;  // arrival rate
    double mu = 0.0;      // service rate

    Mm1(double arrival_rate, double service_rate) : lambda(arrival_rate), mu(service_rate) {
        HAP_CHECK_FINITE(arrival_rate);
        HAP_CHECK_FINITE(service_rate);
        if (arrival_rate <= 0.0 || service_rate <= 0.0)
            throw std::invalid_argument("Mm1: rates must be positive");
    }

    double utilization() const noexcept { return lambda / mu; }
    bool stable() const noexcept { return lambda < mu; }

    // Mean time in system (sojourn).
    double mean_delay() const { return 1.0 / (mu - lambda); }
    // Mean waiting time in queue (excluding service).
    double mean_wait() const { return utilization() / (mu - lambda); }
    // Mean number in system.
    double mean_number() const { return utilization() / (1.0 - utilization()); }
    // P(number in system == n).
    double p_n(unsigned n) const;
    // Sojourn-time CDF: P(T <= t) = 1 - e^{-(mu - lambda) t}.
    double delay_cdf(double t) const;

    // Busy-period statistics (standard M/M/1 results): E[B] = 1/(mu-lambda),
    // E[idle] = 1/lambda.
    double mean_busy_period() const { return 1.0 / (mu - lambda); }
    double mean_idle_period() const { return 1.0 / lambda; }
};

// M/M/1/K: finite buffer of K (including the job in service). The loss
// baseline for the Section-6 buffer-vs-bandwidth comparison.
struct Mm1K {
    double lambda;
    double mu;
    unsigned capacity;  // K >= 1

    Mm1K(double arrival_rate, double service_rate, unsigned k);

    // P(n in system), n in [0, K].
    double p_n(unsigned n) const;
    // Blocking probability = P(K).
    double loss_probability() const { return p_n(capacity); }
    double mean_number() const;
    // Mean delay of ACCEPTED jobs (Little on the accepted rate).
    double mean_delay() const;
};

}  // namespace hap::queueing
