#include "markov/qbd.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::markov {

using numerics::Matrix;

namespace {
constexpr double kTol = 1e-13;  // on G's row-sum defect or the correction T
constexpr int kMaxIter = 100000;
}  // namespace

QbdResult solve_mmpp_m1(const Matrix& phase_generator,
                        const std::vector<double>& arrival_rates,
                        double service_rate) {
    const std::size_t n = arrival_rates.size();
    if (n == 0) throw std::invalid_argument("solve_mmpp_m1: empty phase space");
    if (phase_generator.rows() != n || phase_generator.cols() != n)
        throw std::invalid_argument("solve_mmpp_m1: generator shape mismatch");
    if (service_rate <= 0.0) throw std::invalid_argument("solve_mmpp_m1: service_rate <= 0");
    HAP_CHECK_FINITE(service_rate);
    for (double rate : arrival_rates) {
        HAP_CHECK_FINITE(rate);
        HAP_PRECOND(rate >= 0.0);
    }

    obs::ScopedTimer timer("qbd.solve_s");
    const auto record = [n, &timer](const QbdResult& r) {
        if (!obs::enabled()) return;
        obs::SolverTelemetry t;
        t.solver = "qbd";
        t.iterations = static_cast<std::uint64_t>(r.iterations);
        t.residual = r.residual;
        t.truncation = n;
        t.wall_time_s = timer.stop();
        t.converged = r.converged;
        obs::registry().record_solver(std::move(t));
    };

    // Stability is decided by the exact drift condition pi . lambda < mu
    // (pi = stationary law of the modulating chain): the spectral radius of
    // R sits extremely close to 1 for bursty chains (rare supercritical
    // phases), where a numerical sp estimate cannot be trusted to one part
    // in 1e-4.
    QbdResult res;
    {
        Matrix a = phase_generator.transposed();
        for (std::size_t j = 0; j < n; ++j) a(n - 1, j) = 1.0;
        std::vector<double> b(n, 0.0);
        b[n - 1] = 1.0;
        const std::vector<double> pi = numerics::solve(a, b);
        res.mean_rate =
            std::inner_product(pi.begin(), pi.end(), arrival_rates.begin(), 0.0);
        res.stable = res.mean_rate < service_rate;
    }

    // Level-transition blocks of the QBD: A0 = diag(arrivals) (up),
    // A1 = Q - A0 - mu I (local), A2 = mu I (down).
    Matrix a1 = phase_generator;
    for (std::size_t i = 0; i < n; ++i) a1(i, i) -= arrival_rates[i] + service_rate;
    Matrix a2(n, n);
    for (std::size_t i = 0; i < n; ++i) a2(i, i) = service_rate;

    // Logarithmic reduction (Latouche-Ramaswami): quadratically convergent
    // computation of Neuts' G matrix, after which R = A0 (-A1 - A0 G)^{-1}.
    // The diagonal structure of A0/A2 keeps the setup at O(n^2):
    //   B0 = (-A1)^{-1} A0  (column scaling), B2 = mu (-A1)^{-1}.
    Matrix neg_a1 = a1;
    neg_a1 *= -1.0;
    const Matrix inv_neg_a1 = numerics::inverse(neg_a1);
    Matrix b0 = inv_neg_a1;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) b0(i, j) *= arrival_rates[j];
    Matrix b2 = inv_neg_a1;
    b2 *= service_rate;

    Matrix g = b2;
    const std::vector<double> ones(n, 1.0);

    Matrix h = b0, l = b2, t = b0;
    for (; res.iterations < kMaxIter; ++res.iterations) {
        // U = HL + LH; H' = (I-U)^{-1} H^2; L' = (I-U)^{-1} L^2;
        // G += T L'; T *= H'.
        Matrix u = h * l + l * h;
        Matrix i_minus_u = Matrix::identity(n) - u;
        const numerics::LuDecomposition lu(std::move(i_minus_u));
        const Matrix h2 = h * h;
        const Matrix l2 = l * l;
        h = lu.solve(h2);
        l = lu.solve(l2);
        g += t * l;
        t = t * h;
        // G is (sub)stochastic at the fixed point; stop when its row sums
        // stabilize at their limit or the correction term T has vanished.
        const std::vector<double> rowsum = g.apply(ones);
        double defect = 0.0;
        for (double r : rowsum) defect = std::max(defect, std::abs(1.0 - r));
        res.residual = std::min(defect, t.max_abs());
        if (t.max_abs() < kTol || defect < kTol) {
            ++res.iterations;
            res.converged = true;
            break;
        }
    }
    // R = A0 (-A1 - A0 G)^{-1}; A0 diagonal => row scaling of the inverse.
    Matrix w = neg_a1;
    for (std::size_t i = 0; i < n; ++i) {
        const double li = arrival_rates[i];
        if (li == 0.0) continue;  // haplint: allow(float-equality) exact zero = level has no arrivals, by construction
        for (std::size_t j = 0; j < n; ++j) w(i, j) -= li * g(i, j);
    }
    const Matrix w_inv = numerics::inverse(w);
    res.r = w_inv;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) res.r(i, j) *= arrival_rates[i];

    if (!res.stable) {
        record(res);
        return res;
    }

    // Boundary: pi0 (B00 + R A2) = 0 with B00 = Q - diag(arrivals);
    // normalization pi0 (I - R)^{-1} 1 = 1.
    Matrix b = phase_generator;
    for (std::size_t i = 0; i < n; ++i) b(i, i) -= arrival_rates[i];
    b += res.r * a2;

    const Matrix inv_i_minus_r = numerics::inverse(Matrix::identity(n) - res.r);
    const std::vector<double> norm_row = inv_i_minus_r.apply(ones);  // (I-R)^{-1} 1

    Matrix sys = b.transposed();
    for (std::size_t j = 0; j < n; ++j) sys(n - 1, j) = norm_row[j];
    std::vector<double> rhs(n, 0.0);
    rhs[n - 1] = 1.0;
    res.pi0 = numerics::solve(sys, rhs);

    // Phase marginal phi = pi0 (I - R)^{-1}; mean rate = phi . arrival_rates.
    const std::vector<double> phi = inv_i_minus_r.apply_left(res.pi0);
    res.mean_rate =
        std::inner_product(phi.begin(), phi.end(), arrival_rates.begin(), 0.0);

    // E[level] = pi0 R (I-R)^{-2} 1.
    const Matrix inv2 = inv_i_minus_r * inv_i_minus_r;
    const std::vector<double> tail = (res.r * inv2).apply(ones);
    res.mean_level =
        std::inner_product(res.pi0.begin(), res.pi0.end(), tail.begin(), 0.0);

    double p_empty = std::accumulate(res.pi0.begin(), res.pi0.end(), 0.0);
    res.utilization = 1.0 - p_empty;
    res.mean_delay = res.mean_rate > 0.0 ? res.mean_level / res.mean_rate : 0.0;
    // A stable QBD must hand back a usable law: boundary mass in [0,1] per
    // phase, finite moments. Matrix-geometric breakdown surfaces here.
    for (double p : res.pi0) HAP_CHECK_PROB(p);
    HAP_CHECK_PROB(res.utilization);
    HAP_CHECK_FINITE(res.mean_level);
    HAP_CHECK_FINITE(res.mean_delay);
    HAP_PRECOND(res.mean_level >= 0.0);
    record(res);
    return res;
}

}  // namespace hap::markov
