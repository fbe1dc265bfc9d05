// G/M/1 queue solved through the classical root equation
//   sigma = A*(mu - mu*sigma),
// where A*(s) is the Laplace-Stieltjes transform of the interarrival-time
// law. This is the reduction the paper's Solutions 1 and 2 rely on. The root
// is found by Brent's method on a bracket; the paper's damped
// "sigma-algorithm" is the fallback where the bracket degenerates near
// saturation. Both agree on the root (tested).
#pragma once

#include <functional>

namespace hap::queueing {

struct [[nodiscard]] Gm1Result {
    double sigma = 0.0;       // probability an arrival finds the server busy
    double mean_delay = 0.0;  // sojourn time 1 / (mu (1 - sigma))
    double mean_wait = 0.0;   // sigma / (mu (1 - sigma))
    double utilization = 0.0; // lambda / mu
    double mean_number = 0.0; // via Little: lambda * mean_delay
    bool stable = false;
    int iterations = 0;  // root-solver iterations consumed (0 when unstable)
};

// `transform` evaluates A*(s) for s >= 0; `service_rate` is mu;
// `arrival_rate` is the mean arrival rate (1 / mean interarrival), used only
// for utilization and Little's law. Each root finder runs to tol 1e-12 in at
// most 500 iterations; throws std::runtime_error when both fail.
Gm1Result solve_gm1(const std::function<double(double)>& transform,
                    double service_rate, double arrival_rate);

// Waiting-time CDF of G/M/1: W(y) = 1 - sigma e^{-mu (1 - sigma) y}.
double gm1_wait_cdf(double sigma, double service_rate, double y);

}  // namespace hap::queueing
