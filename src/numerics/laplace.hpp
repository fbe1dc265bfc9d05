// Laplace transforms of probability densities on [0, inf). The G/M/1
// sigma-equation needs A*(s) = int_0^inf a(t) e^{-st} dt for an analytic or
// tabulated interarrival density.
#pragma once

#include <functional>
#include <vector>

namespace hap::numerics {

// A*(s) for a callable density. `density` must be integrable on [0, inf).
double laplace_transform(const std::function<double(double)>& density, double s);

// Exact transform of a finite mixture of exponentials:
//   a(t) = sum_k w_k r_k e^{-r_k t}  =>  A*(s) = sum_k w_k r_k / (r_k + s).
// Components with r_k == 0 contribute 0 for s > 0 (a unit mass at infinity),
// matching the rate-weighted-mixture convention of the paper's Solutions 1/2.
struct ExponentialMixture {
    std::vector<double> weights;  // need not sum to 1 if zero-rate mass exists
    std::vector<double> rates;

    double transform(double s) const;
    double density(double t) const;
    double cdf(double t) const;
    double mean() const;          // sum_k w_k / r_k over positive-rate parts
    double second_moment() const; // sum_k 2 w_k / r_k^2
};

}  // namespace hap::numerics
