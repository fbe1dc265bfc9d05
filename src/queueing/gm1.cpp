#include "queueing/gm1.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "numerics/roots.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::queueing {

Gm1Result solve_gm1(const std::function<double(double)>& transform,
                    double service_rate, double arrival_rate) {
    if (service_rate <= 0.0) throw std::invalid_argument("solve_gm1: service_rate <= 0");
    if (arrival_rate <= 0.0) throw std::invalid_argument("solve_gm1: arrival_rate <= 0");
    HAP_CHECK_FINITE(service_rate);
    HAP_CHECK_FINITE(arrival_rate);

    Gm1Result res;
    res.utilization = arrival_rate / service_rate;
    if (res.utilization >= 1.0) return res;  // unstable: report as-is

    // Stability must be judged against the transform's OWN mean interarrival
    // time E[A] = -A*'(0): a mixture with mass on zero-rate states (the
    // rate-weighted HAP law) has E[A] slightly below 1/arrival_rate, so the
    // G/M/1 root sigma hits 1 just before rho does. Estimate E[A] by a
    // one-sided difference at 0.
    {
        const double eps = 1e-7 * service_rate;
        const double mean_interarrival = (1.0 - transform(eps)) / eps;
        if (service_rate * mean_interarrival <= 1.0 + 1e-9) return res;  // unstable
    }

    const auto g = [&](double sigma) {
        return transform(service_rate * (1.0 - sigma));
    };

    obs::ScopedTimer timer("gm1.solve_s");

    numerics::RootOptions ropts;
    ropts.tol = 1e-12;
    ropts.max_iter = 500;
    int stage_iters = 0;
    ropts.iterations_out = &stage_iters;

    // sigma = 1 is always a root of g(s) - s; the queueing root is the
    // unique one in (0, 1) when rho < 1. Bracket away from 1.
    std::optional<double> root =
        numerics::brent([&](double s) { return g(s) - s; }, 0.0, 1.0 - 1e-12, ropts);
    int used_iters = stage_iters;
    // Near saturation the bracket can degenerate (both endpoints same sign
    // within rounding); the paper's averaging iteration still converges
    // there, so fall back to it.
    if (!root) {
        root = numerics::damped_fixed_point(g, 0.5, ropts);
        used_iters += stage_iters;
    }
    if (!root) {
        if (obs::enabled()) {
            obs::SolverTelemetry t;
            t.solver = "gm1.sigma";
            t.iterations = static_cast<std::uint64_t>(used_iters);
            t.wall_time_s = timer.stop();
            t.converged = false;
            obs::registry().record_solver(std::move(t));
        }
        throw std::runtime_error("solve_gm1: sigma iteration failed to converge");
    }

    res.sigma = *root;
    res.stable = res.sigma < 1.0;
    const double denom = service_rate * (1.0 - res.sigma);
    res.mean_delay = 1.0 / denom;
    res.mean_wait = res.sigma / denom;
    res.mean_number = arrival_rate * res.mean_delay;
    res.iterations = used_iters;
    if (obs::enabled()) {
        obs::SolverTelemetry t;
        t.solver = "gm1.sigma";
        t.iterations = static_cast<std::uint64_t>(used_iters);
        t.residual = std::abs(g(res.sigma) - res.sigma);
        t.wall_time_s = timer.stop();
        t.converged = true;
        obs::registry().record_solver(std::move(t));
    }
    // The root sigma is a probability (P[arrival finds the system busy] in
    // the embedded chain); a transform evaluated outside its strip of
    // convergence drives it out of [0,1] and the delay to NaN.
    HAP_CHECK_PROB(res.sigma);
    HAP_CHECK_FINITE(res.mean_delay);
    HAP_CHECK_FINITE(res.mean_number);
    return res;
}

double gm1_wait_cdf(double sigma, double service_rate, double y) {
    HAP_CHECK_PROB(sigma);
    HAP_CHECK_FINITE(service_rate);
    HAP_CHECK_FINITE(y);
    if (y < 0.0) return 0.0;
    return 1.0 - sigma * std::exp(-service_rate * (1.0 - sigma) * y);
}

}  // namespace hap::queueing
