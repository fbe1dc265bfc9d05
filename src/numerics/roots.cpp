#include "numerics/roots.hpp"

#include <cmath>

#include "core/contracts.hpp"

namespace hap::numerics {

namespace {

void report_iterations(const RootOptions& opts, int used) {
    if (opts.iterations_out != nullptr) *opts.iterations_out = used;
}

}  // namespace

std::optional<double> damped_fixed_point(const std::function<double(double)>& g,
                                         double x0, const RootOptions& opts) {
    HAP_CHECK_FINITE(x0);
    double x = x0;
    for (int i = 0; i < opts.max_iter; ++i) {
        const double gx = g(x);
        if (std::abs(gx - x) < opts.tol) {
            report_iterations(opts, i + 1);
            return gx;
        }
        x = 0.5 * (gx + x);
    }
    report_iterations(opts, opts.max_iter);
    return std::nullopt;
}

std::optional<double> brent(const std::function<double(double)>& f, double lo,
                            double hi, const RootOptions& opts) {
    HAP_CHECK_FINITE(lo);
    HAP_CHECK_FINITE(hi);
    report_iterations(opts, 0);
    double a = lo, b = hi;
    double fa = f(a), fb = f(b);
    if (fa == 0.0) return a;  // haplint: allow(float-equality) exact root: no tolerance can improve it
    if (fb == 0.0) return b;  // haplint: allow(float-equality) exact root: no tolerance can improve it
    if (std::signbit(fa) == std::signbit(fb)) return std::nullopt;
    if (std::abs(fa) < std::abs(fb)) {
        std::swap(a, b);
        std::swap(fa, fb);
    }
    double c = a, fc = fa;
    bool bisected = true;
    double d = 0.0;
    for (int i = 0; i < opts.max_iter; ++i) {
        double s;
        if (fa != fc && fb != fc) {  // haplint: allow(float-equality) IQI needs distinct ordinates bitwise, else divides by 0
            // Inverse quadratic interpolation.
            s = a * fb * fc / ((fa - fb) * (fa - fc)) +
                b * fa * fc / ((fb - fa) * (fb - fc)) +
                c * fa * fb / ((fc - fa) * (fc - fb));
        } else {
            s = b - fb * (b - a) / (fb - fa);  // secant
        }
        const double mid = 0.5 * (a + b);
        const bool out_of_range = (s < std::min(mid, b) || s > std::max(mid, b));
        const bool slow = bisected ? std::abs(s - b) >= 0.5 * std::abs(b - c)
                                   : std::abs(s - b) >= 0.5 * std::abs(c - d);
        if (out_of_range || slow || std::abs(b - c) < opts.tol) {
            s = mid;
            bisected = true;
        } else {
            bisected = false;
        }
        const double fs = f(s);
        d = c;
        c = b;
        fc = fb;
        if (std::signbit(fa) != std::signbit(fs)) {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if (std::abs(fa) < std::abs(fb)) {
            std::swap(a, b);
            std::swap(fa, fb);
        }
        if (fb == 0.0 || std::abs(b - a) < opts.tol) {  // haplint: allow(float-equality) exact root short-circuit ahead of tol test
            report_iterations(opts, i + 1);
            return b;
        }
    }
    report_iterations(opts, opts.max_iter);
    return b;
}

}  // namespace hap::numerics
