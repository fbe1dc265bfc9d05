#include "numerics/quadrature.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hap::numerics {
namespace {

constexpr double kAbsTol = 1e-10;
constexpr double kRelTol = 1e-9;
constexpr int kMaxDepth = 40;          // recursion limit for adaptive Simpson
constexpr double kTailCutoff = 1e-14;  // of the accumulated value
constexpr int kMaxTailBlocks = 200;

double simpson(double fa, double fm, double fb, double h) {
    return h / 6.0 * (fa + 4.0 * fm + fb);
}

double adaptive_step(const std::function<double(double)>& f, double a, double b,
                     double fa, double fm, double fb, double whole, double tol,
                     int depth) {
    const double m = 0.5 * (a + b);
    const double lm = 0.5 * (a + m);
    const double rm = 0.5 * (m + b);
    const double flm = f(lm);
    const double frm = f(rm);
    const double left = simpson(fa, flm, fm, m - a);
    const double right = simpson(fm, frm, fb, b - m);
    const double delta = left + right - whole;
    if (depth >= kMaxDepth || std::abs(delta) <= 15.0 * tol)
        return left + right + delta / 15.0;
    return adaptive_step(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1) +
           adaptive_step(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1);
}

}  // namespace

double integrate(const std::function<double(double)>& f, double a, double b) {
    HAP_CHECK_FINITE(a);
    HAP_CHECK_FINITE(b);
    if (!(a <= b)) throw std::invalid_argument("integrate: a > b");
    if (a == b) return 0.0;  // haplint: allow(float-equality) degenerate interval is exactly empty
    const double m = 0.5 * (a + b);
    const double fa = f(a);
    const double fm = f(m);
    const double fb = f(b);
    const double whole = simpson(fa, fm, fb, b - a);
    const double tol = std::max(kAbsTol, kRelTol * std::abs(whole));
    return adaptive_step(f, a, b, fa, fm, fb, whole, tol, 0);
}

double integrate_to_infinity(const std::function<double(double)>& f) {
    double total = 0.0;
    double start = 0.0;
    double len = 1.0;
    for (int block = 0; block < kMaxTailBlocks; ++block) {
        const double piece = integrate(f, start, start + len);
        total += piece;
        start += len;
        len *= 2.0;
        const double scale = std::max(std::abs(total), 1e-300);
        if (block > 0 && std::abs(piece) < kTailCutoff * scale) return total;
    }
    return total;
}

}  // namespace hap::numerics
