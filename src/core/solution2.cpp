#include "core/solution2.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::core {

namespace {

// Truncated-Poisson pmf over 0..cap (inclusive), normalized.
std::vector<double> truncated_poisson(double mean, std::size_t cap) {
    HAP_PRECOND(mean >= 0.0);
    HAP_CHECK_FINITE(mean);
    std::vector<double> p(cap + 1);
    p[0] = std::exp(-mean);
    for (std::size_t k = 1; k <= cap; ++k)
        p[k] = p[k - 1] * mean / static_cast<double>(k);
    double total = 0.0;
    for (double v : p) total += v;
    if (total <= 0.0) {
        // Deep-underflow guard: fall back to a point mass at the cap, the
        // closest representable law (mean far above the truncation point).
        p.assign(cap + 1, 0.0);
        p[cap] = 1.0;
        return p;
    }
    for (double& v : p) v /= total;
    return p;
}

std::size_t default_cap(double mean, double margin) {
    return static_cast<std::size_t>(std::ceil(mean + 10.0 * std::sqrt(mean + 1.0) + margin));
}

}  // namespace

Solution2::Solution2(HapParams params) : params_(std::move(params)) {
    params_.validate();
    pinned_users_ = params_.permanent_users > 0;
    a_ = params_.mean_users();
    lambda_bar_unbounded_ = params_.mean_message_rate();
}

double Solution2::fn_s(double t) const {
    double s = 0.0;
    for (const ApplicationType& app : params_.apps) {
        const double li = app.total_message_rate();
        s += app.mean_instances_per_user() * (std::exp(-li * t) - 1.0);
    }
    return s;
}

double Solution2::fn_v(double t) const {
    double v = 0.0;
    for (const ApplicationType& app : params_.apps) {
        const double li = app.total_message_rate();
        v += app.mean_instances_per_user() * li * std::exp(-li * t);
    }
    return v;
}

double Solution2::fn_w(double t) const {
    double w = 0.0;
    for (const ApplicationType& app : params_.apps) {
        const double li = app.total_message_rate();
        w += app.mean_instances_per_user() * li * li * std::exp(-li * t);
    }
    return w;
}

double Solution2::mean_rate() const {
    if (!params_.bounded()) return lambda_bar_unbounded_;
    mixture();  // builds and caches lambda_bar_bounded_
    return lambda_bar_bounded_;
}

double Solution2::interarrival_density(double t) const {
    HAP_CHECK_FINITE(t);
    if (params_.bounded()) {
        throw std::logic_error("Solution2: closed form requires an unbounded HAP");
    }
    const double u = std::exp(fn_s(t));
    const double v = fn_v(t);
    const double w = fn_w(t);
    const double l = pinned_users_ ? std::exp(a_ * fn_s(t)) : std::exp(a_ * (u - 1.0));
    const double m = pinned_users_ ? a_ * v : a_ * u * v;
    const double curvature = pinned_users_ ? a_ * w : a_ * u * w;
    return l * (m * m + (pinned_users_ ? 0.0 : m * v) + curvature) / lambda_bar_unbounded_;
}

double Solution2::interarrival_cdf(double t) const {
    HAP_CHECK_FINITE(t);
    if (params_.bounded()) {
        throw std::logic_error("Solution2: closed form requires an unbounded HAP");
    }
    const double u = std::exp(fn_s(t));
    const double l = pinned_users_ ? std::exp(a_ * fn_s(t)) : std::exp(a_ * (u - 1.0));
    const double m = pinned_users_ ? a_ * fn_v(t) : a_ * u * fn_v(t);
    return 1.0 - l * m / lambda_bar_unbounded_;
}

double Solution2::zero_rate_mass() const {
    double s_inf = 0.0;
    for (const ApplicationType& app : params_.apps)
        s_inf -= app.mean_instances_per_user();
    return pinned_users_ ? std::exp(a_ * s_inf)
                         : std::exp(a_ * (std::exp(s_inf) - 1.0));
}

const numerics::ExponentialMixture& Solution2::mixture() const {
    if (!mixture_) build_mixture();
    return *mixture_;
}

void Solution2::build_mixture() const {
    if (!params_.homogeneous_types()) {
        throw std::logic_error(
            "Solution2: the finite-mixture path requires homogeneous application "
            "types (use the closed-form/quadrature path instead)");
    }
    obs::ScopedTimer timer("solution2.mixture_s");

    const std::size_t l = params_.num_app_types();
    const ApplicationType& app = params_.apps.front();
    const double b = app.mean_instances_per_user();
    const double per_instance_rate = app.total_message_rate();  // Lambda
    const double c = static_cast<double>(l) * b;  // mean apps per user

    // User marginal: pinned, or (truncated) Poisson(a).
    std::vector<double> px;
    std::size_t x0 = 0;
    if (pinned_users_) {
        x0 = params_.permanent_users;
        px.assign(1, 1.0);
    } else {
        const std::size_t xmax =
            params_.max_users > 0 ? params_.max_users : default_cap(a_, 25.0);
        px = truncated_poisson(a_, xmax);
    }

    // Application count marginal: mixture over x of truncated Poisson(x c).
    const double worst_mean = c * static_cast<double>(x0 + px.size() - 1);
    const std::size_t ymax =
        params_.max_apps > 0 ? params_.max_apps : default_cap(worst_mean, 40.0);

    std::vector<double> qy(ymax + 1, 0.0);
    for (std::size_t xi = 0; xi < px.size(); ++xi) {
        const std::size_t x = x0 + xi;
        if (px[xi] <= 0.0) continue;
        if (x == 0) {
            qy[0] += px[xi];
            continue;
        }
        const std::vector<double> py =
            truncated_poisson(c * static_cast<double>(x), ymax);
        for (std::size_t y = 0; y <= ymax; ++y) qy[y] += px[xi] * py[y];
    }

    // Rate-weighted exponential mixture over y >= 1.
    double lambda_bar = 0.0;
    for (std::size_t y = 1; y <= ymax; ++y)
        lambda_bar += qy[y] * per_instance_rate * static_cast<double>(y);

    HAP_CHECK_FINITE(lambda_bar);
    HAP_PRECOND(lambda_bar > 0.0);
    numerics::ExponentialMixture mix;
    mix.weights.reserve(ymax);
    mix.rates.reserve(ymax);
    for (std::size_t y = 1; y <= ymax; ++y) {
        const double r = per_instance_rate * static_cast<double>(y);
        mix.weights.push_back(qy[y] * r / lambda_bar);
        mix.rates.push_back(r);
        HAP_CHECK_PROB(mix.weights.back());
    }
    lambda_bar_bounded_ = lambda_bar;
    mixture_ = std::move(mix);
    if (obs::enabled()) {
        obs::SolverTelemetry t;
        t.solver = "solution2.mixture";
        t.iterations = px.size();  // user-marginal states folded into the mixture
        t.truncation = ymax;
        t.wall_time_s = timer.stop();
        t.converged = true;
        obs::registry().record_solver(std::move(t));
    }
}

double Solution2::laplace(double s) const {
    HAP_CHECK_FINITE(s);
    if (params_.homogeneous_types()) return mixture().transform(s);
    if (params_.bounded()) {
        throw std::logic_error(
            "Solution2: bounded HAPs require homogeneous application types");
    }
    return numerics::laplace_transform(
        [this](double t) { return interarrival_density(t); }, s);
}

queueing::Gm1Result Solution2::solve_queue(double service_rate) const {
    HAP_CHECK_FINITE(service_rate);
    HAP_PRECOND(service_rate > 0.0);
    return queueing::solve_gm1([this](double s) { return laplace(s); }, service_rate,
                               mean_rate());
}

queueing::Gm1Result Solution2::solve_queue() const {
    if (!params_.uniform_service()) {
        throw std::logic_error(
            "Solution2::solve_queue(): non-uniform service rates; pass an explicit "
            "service rate");
    }
    return solve_queue(params_.apps.front().messages.front().service_rate);
}

}  // namespace hap::core
