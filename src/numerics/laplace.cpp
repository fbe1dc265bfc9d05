#include "numerics/laplace.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "numerics/quadrature.hpp"

namespace hap::numerics {

double laplace_transform(const std::function<double(double)>& density, double s) {
    HAP_CHECK_FINITE(s);
    if (s < 0.0) throw std::invalid_argument("laplace_transform: s < 0");
    return integrate_to_infinity([&](double t) { return density(t) * std::exp(-s * t); });
}

double ExponentialMixture::transform(double s) const {
    HAP_CHECK_FINITE(s);
    double total = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] <= 0.0) continue;
        total += weights[k] * rates[k] / (rates[k] + s);
    }
    return total;
}

double ExponentialMixture::density(double t) const {
    HAP_CHECK_FINITE(t);
    double total = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] <= 0.0) continue;
        total += weights[k] * rates[k] * std::exp(-rates[k] * t);
    }
    return total;
}

double ExponentialMixture::cdf(double t) const {
    HAP_CHECK_FINITE(t);
    double total = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] <= 0.0) continue;
        total += weights[k] * (1.0 - std::exp(-rates[k] * t));
    }
    return total;
}

double ExponentialMixture::mean() const {
    double total = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] <= 0.0) continue;
        total += weights[k] / rates[k];
    }
    return total;
}

double ExponentialMixture::second_moment() const {
    double total = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
        if (rates[k] <= 0.0) continue;
        total += 2.0 * weights[k] / (rates[k] * rates[k]);
    }
    return total;
}

}  // namespace hap::numerics
