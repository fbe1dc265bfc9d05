// Scalar root finding and fixed-point iteration. The G/M/1 analysis needs a
// robust solver for sigma = A*(mu - mu*sigma) on (0, 1): Brent's bracketing
// method, with the paper's own averaging iteration as its fallback.
#pragma once

#include <functional>
#include <optional>

namespace hap::numerics {

struct RootOptions {
    double tol = 1e-12;
    int max_iter = 200;
    // When non-null, receives the number of iterations consumed (written on
    // every exit path, including bracket rejection, where it is 0). Callers
    // use it for solver telemetry; it never changes the iteration itself.
    int* iterations_out = nullptr;
};

// Damped fixed-point iteration x <- (g(x) + x) / 2 (the paper's
// sigma-algorithm step). Returns nullopt when it fails to converge.
std::optional<double> damped_fixed_point(const std::function<double(double)>& g,
                                         double x0, const RootOptions& opts = {});

// Brent-style hybrid: bisection safeguarded secant on [lo, hi]. Requires f(lo)
// and f(hi) to have opposite signs and returns nullopt when they do not;
// converges superlinearly on smooth functions.
std::optional<double> brent(const std::function<double(double)>& f, double lo,
                            double hi, const RootOptions& opts = {});

}  // namespace hap::numerics
