// Numerical integration used by the queueing analyzers: adaptive Simpson on
// finite intervals and a tail-splitting scheme for [0, inf) integrands that
// decay exponentially (interarrival densities times e^{-st}).
#pragma once

#include <functional>

namespace hap::numerics {

// Adaptive Simpson on [a, b] to max(1e-10, 1e-9 |estimate|), at most 40
// bisections deep.
double integrate(const std::function<double(double)>& f, double a, double b);

// Integral over [0, inf) of a non-oscillatory integrand that eventually
// decays at least exponentially. Integrates blocks of length 1, 2, 4, ...
// (at most 200) until one contributes less than 1e-14 of the accumulated
// value.
double integrate_to_infinity(const std::function<double(double)>& f);

}  // namespace hap::numerics
