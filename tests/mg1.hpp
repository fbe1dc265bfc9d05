// Test oracle: M/G/1 closed forms (Pollaczek-Khinchine). The paper's related
// work [8] analyzes a 2-state-MMPP/G/1 multiplexer; the plain M/G/1 is the
// natural Poisson-input baseline when service times are not exponential, and
// the tests use it to sanity-check the simulation kernels with deterministic
// and hyperexponential service. No library code depends on it.
#pragma once

#include <stdexcept>

#include "core/contracts.hpp"

namespace hap::queueing {

struct Mg1 {
    double lambda;          // arrival rate
    double mean_service;    // E[S]
    double second_moment;   // E[S^2]

    Mg1(double arrival_rate, double mean_s, double second_moment_s)
        : lambda(arrival_rate), mean_service(mean_s), second_moment(second_moment_s) {
        HAP_CHECK_FINITE(arrival_rate);
        HAP_CHECK_FINITE(mean_s);
        HAP_CHECK_FINITE(second_moment_s);
        if (arrival_rate <= 0.0 || mean_s <= 0.0 || second_moment_s < mean_s * mean_s)
            throw std::invalid_argument("Mg1: invalid parameters");
    }

    static Mg1 exponential(double arrival_rate, double service_rate) {
        HAP_CHECK_FINITE(service_rate);
        HAP_PRECOND(service_rate > 0.0);
        const double m = 1.0 / service_rate;
        return Mg1(arrival_rate, m, 2.0 * m * m);
    }
    static Mg1 deterministic(double arrival_rate, double service_time) {
        HAP_CHECK_FINITE(service_time);
        return Mg1(arrival_rate, service_time, service_time * service_time);
    }

    double utilization() const noexcept { return lambda * mean_service; }
    bool stable() const noexcept { return utilization() < 1.0; }

    // Pollaczek-Khinchine mean waiting time: W = lambda E[S^2] / (2 (1-rho)).
    double mean_wait() const {
        return lambda * second_moment / (2.0 * (1.0 - utilization()));
    }
    double mean_delay() const { return mean_wait() + mean_service; }
    double mean_number() const { return lambda * mean_delay(); }
    // SCV of the service time.
    double service_scv() const noexcept {
        const double var = second_moment - mean_service * mean_service;
        return var / (mean_service * mean_service);
    }
};

}  // namespace hap::queueing
