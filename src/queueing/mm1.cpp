#include "queueing/mm1.hpp"

#include <cmath>

namespace hap::queueing {

double Mm1::p_n(unsigned n) const {
    const double rho = utilization();
    if (rho >= 1.0) return 0.0;
    return (1.0 - rho) * std::pow(rho, static_cast<double>(n));
}

double Mm1::delay_cdf(double t) const {
    HAP_CHECK_FINITE(t);
    if (t < 0.0) return 0.0;
    return 1.0 - std::exp(-(mu - lambda) * t);
}

Mm1K::Mm1K(double arrival_rate, double service_rate, unsigned k)
    : lambda(arrival_rate), mu(service_rate), capacity(k) {
    HAP_CHECK_FINITE(arrival_rate);
    HAP_CHECK_FINITE(service_rate);
    if (arrival_rate <= 0.0 || service_rate <= 0.0 || k == 0)
        throw std::invalid_argument("Mm1K: invalid parameters");
}

double Mm1K::p_n(unsigned n) const {
    if (n > capacity) return 0.0;
    const double rho = lambda / mu;
    if (std::abs(rho - 1.0) < 1e-12)
        return 1.0 / static_cast<double>(capacity + 1);
    return (1.0 - rho) * std::pow(rho, static_cast<double>(n)) /
           (1.0 - std::pow(rho, static_cast<double>(capacity + 1)));
}

double Mm1K::mean_number() const {
    double total = 0.0;
    for (unsigned n = 1; n <= capacity; ++n)
        total += static_cast<double>(n) * p_n(n);
    return total;
}

double Mm1K::mean_delay() const {
    const double accepted = lambda * (1.0 - loss_probability());
    return accepted > 0.0 ? mean_number() / accepted : 0.0;
}

}  // namespace hap::queueing
