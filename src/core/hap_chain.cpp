#include "core/hap_chain.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::core {

namespace {

std::size_t mass_cap(double mean, double spread, double margin) {
    return static_cast<std::size_t>(
        std::ceil(mean + spread * std::sqrt(mean + 1.0) + margin));
}

struct LumpedShape {
    std::size_t x_lo, x_hi, y_hi;
};

LumpedShape lumped_shape(const HapParams& p, const ChainBounds& b) {
    LumpedShape s{};
    if (p.permanent_users > 0) {
        s.x_lo = s.x_hi = p.permanent_users;
    } else {
        s.x_lo = 0;
        s.x_hi = b.max_users;
        if (p.max_users > 0 && p.max_users < s.x_hi) s.x_hi = p.max_users;
        if (s.x_hi == 0) throw std::invalid_argument("LumpedChain: max_users bound is 0");
    }
    s.y_hi = b.max_apps_total;
    if (p.max_apps > 0 && p.max_apps < s.y_hi) s.y_hi = p.max_apps;
    if (s.y_hi == 0) throw std::invalid_argument("LumpedChain: max_apps bound is 0");
    return s;
}

}  // namespace

ChainBounds ChainBounds::defaults_for(const HapParams& p, double spread) {
    HAP_CHECK_FINITE(spread);
    HAP_PRECOND(spread > 0.0);
    ChainBounds b;
    const double a = p.mean_users();
    b.max_users = p.max_users > 0 ? p.max_users : mass_cap(a, spread, 5.0);

    // Bound the app dimensions from the STATIONARY MARGINAL of the counts
    // (mixed Poisson: Var[y] = E[y] + c^2 Var[x]), not from the worst
    // conditional mean at x = x_max — joint tail states (x huge AND y huge)
    // carry a product of small probabilities and only bloat the lattice.
    const double var_x = p.permanent_users > 0 ? 0.0 : a;
    double sum_b = 0.0;
    double max_cap_per_type = 0.0;
    for (const ApplicationType& app : p.apps) {
        const double bi = app.mean_instances_per_user();
        sum_b += bi;
        const double mi = a * bi;
        const double vi = mi + bi * bi * var_x;
        max_cap_per_type =
            std::max(max_cap_per_type, mi + spread * std::sqrt(vi + 1.0) + 5.0);
    }
    const double m_y = a * sum_b;
    const double v_y = m_y + sum_b * sum_b * var_x;
    b.max_apps_total =
        p.max_apps > 0
            ? p.max_apps
            : static_cast<std::size_t>(std::ceil(m_y + spread * std::sqrt(v_y + 1.0) + 10.0));
    b.max_apps_per_type = static_cast<std::size_t>(std::ceil(max_cap_per_type));
    return b;
}

// ---------------------------------------------------------------------------
// LumpedChain
// ---------------------------------------------------------------------------

LumpedChain::LumpedChain(const HapParams& params, const ChainBounds& bounds)
    : x_lo_(lumped_shape(params, bounds).x_lo),
      x_hi_(lumped_shape(params, bounds).x_hi),
      y_hi_(lumped_shape(params, bounds).y_hi),
      ctmc_((x_hi_ - x_lo_ + 1) * (y_hi_ + 1)) {
    build(params);
}

LumpedChain::LumpedChain(const HapParams& params, const ChainBounds& bounds,
                         markov::CsrBuilder& builder)
    : x_lo_(lumped_shape(params, bounds).x_lo),
      x_hi_(lumped_shape(params, bounds).x_hi),
      y_hi_(lumped_shape(params, bounds).y_hi),
      ctmc_((x_hi_ - x_lo_ + 1) * (y_hi_ + 1), builder) {
    build(params);
}

void LumpedChain::build(const HapParams& params) {
    if (!params.homogeneous_types()) {
        throw std::invalid_argument(
            "LumpedChain: requires homogeneous application types (paper Fig. 7); "
            "use GeneralChain otherwise");
    }

    const double lambda = params.user_arrival_rate;
    const double mu = params.user_departure_rate;
    const ApplicationType& app = params.apps.front();
    const double l = static_cast<double>(params.num_app_types());
    const double lambda1 = app.arrival_rate;
    const double mu1 = app.departure_rate;
    const double per_instance = app.total_message_rate();  // m * lambda''
    const bool dynamic_users = params.permanent_users == 0;

    arrival_rates_.assign(num_states(), 0.0);
    for (std::size_t x = x_lo_; x <= x_hi_; ++x) {
        for (std::size_t y = 0; y <= y_hi_; ++y) {
            const std::size_t s = index(x, y);
            arrival_rates_[s] = static_cast<double>(y) * per_instance;
            if (dynamic_users) {
                if (x < x_hi_) ctmc_.add_transition(s, index(x + 1, y), lambda);
                if (x > 0) ctmc_.add_transition(s, index(x - 1, y), static_cast<double>(x) * mu);
            }
            if (y < y_hi_)
                ctmc_.add_transition(s, index(x, y + 1), static_cast<double>(x) * l * lambda1);
            if (y > 0) ctmc_.add_transition(s, index(x, y - 1), static_cast<double>(y) * mu1);
        }
    }
    ctmc_.finalize();
}

std::size_t LumpedChain::index(std::size_t x, std::size_t y) const {
    if (x < x_lo_ || x > x_hi_ || y > y_hi_)
        throw std::out_of_range("LumpedChain::index");
    return (x - x_lo_) * (y_hi_ + 1) + y;
}

std::size_t LumpedChain::users_of(std::size_t idx) const noexcept {
    return x_lo_ + idx / (y_hi_ + 1);
}

std::size_t LumpedChain::apps_of(std::size_t idx) const noexcept {
    return idx % (y_hi_ + 1);
}

numerics::Matrix LumpedChain::dense_generator() const {
    return detail::dense_from_ctmc(ctmc_);
}

traffic::Mmpp LumpedChain::to_mmpp() const {
    // Start at the mean-ish state: x = round(a), y = round(x * l * b).
    return traffic::Mmpp(dense_generator(), arrival_rates_, 0);
}

markov::SolveResult LumpedChain::solve(const markov::SolveOptions& opts) const {
    return markov::solve_steady_state(ctmc_, opts);
}

std::vector<double> LumpedChain::solve_direct() const {
    obs::ScopedTimer timer("chain.direct_solve_s");
    const std::size_t nx = x_hi_ - x_lo_ + 1;
    const std::size_t ny = y_hi_ + 1;
    using numerics::Matrix;

    // The chain is block tridiagonal both ways: a user move keeps y and an
    // app move keeps x. Levels run along the longer axis so that the dense
    // blocks span the shorter one: along y (nx-by-nx blocks) when nx < ny,
    // otherwise along x (ny-by-ny blocks). A state idx = x_off * ny + y sits
    // at (level, position) = (y, x_off) or (x_off, y) respectively.
    const bool by_apps = nx < ny;
    const std::size_t nlev = by_apps ? ny : nx;
    const std::size_t npos = by_apps ? nx : ny;
    const std::size_t lev_stride = by_apps ? 1 : ny;
    const std::size_t pos_stride = by_apps ? ny : 1;
    const auto level_of = [&](std::size_t st) { return by_apps ? st % ny : st / ny; };
    const auto pos_of = [&](std::size_t st) { return by_apps ? st / ny : st % ny; };

    // Bin the transitions into block-tridiagonal form by level: a1 = local
    // (same level), a0 = up (level + 1), a2 = down (level - 1). A move
    // between levels keeps the position, so A0 and A2 are diagonal and are
    // kept as vectors.
    std::vector<Matrix> a1(nlev, Matrix(npos, npos, 0.0));
    std::vector<std::vector<double>> a0(nlev, std::vector<double>(npos, 0.0));
    std::vector<std::vector<double>> a2(nlev, std::vector<double>(npos, 0.0));
    for (std::size_t from = 0; from < ctmc_.num_states(); ++from) {
        const markov::Ctmc::OutEdges out = ctmc_.out_edges(from);
        const std::size_t lf = level_of(from);
        const std::size_t pf = pos_of(from);
        for (std::size_t e = 0; e < out.count; ++e) {
            const std::size_t to = out.to[e];
            const std::size_t lt = level_of(to);
            const std::size_t pt = pos_of(to);
            if (lt == lf) {
                a1[lf](pf, pt) += out.rate[e];
            } else if (pt != pf) {
                return {};  // a level move that changes position: A0/A2 not diagonal
            } else if (lt == lf + 1) {
                a0[lf][pf] += out.rate[e];
            } else if (lf == lt + 1) {
                a2[lf][pf] += out.rate[e];
            } else {
                return {};  // a jump of two levels: not block tridiagonal
            }
        }
    }
    for (std::size_t lev = 0; lev < nlev; ++lev)
        for (std::size_t p = 0; p < npos; ++p)
            a1[lev](p, p) -= ctmc_.exit_rate(lev * lev_stride + p * pos_stride);

    // Backward censoring: S_L = A1_L, then S_l = A1_l + R_l A2_{l+1} with
    // R_l = A0_l (-S_{l+1})^{-1}. The R matrices drive the forward pass
    // pi_{l+1} = pi_l R_l; level 0 satisfies pi_0 S_0 = 0. With A0 and A2
    // diagonal, R_l is the inverse with its rows scaled and R_l A2 is R_l
    // with its columns scaled: one product per entry, the only nonzero term
    // of the dense matrix products. A1 is added through Matrix's out-of-line
    // +=, so each product is rounded before the add instead of being fused
    // into a multiply-add, as in the dense form (the bytes are pinned by
    // LumpedChainTest.DirectSolveBitEqualToDenseOracle*).
    std::vector<Matrix> rmat(nlev);
    Matrix s = a1[nlev - 1];
    try {
        for (std::size_t lev = nlev - 1; lev-- > 0;) {
            Matrix& r = rmat[lev] = numerics::inverse(s * -1.0);
            for (std::size_t i = 0; i < npos; ++i)
                for (std::size_t j = 0; j < npos; ++j) r(i, j) *= a0[lev][i];
            s = r;
            for (std::size_t i = 0; i < npos; ++i)
                for (std::size_t j = 0; j < npos; ++j) s(i, j) *= a2[lev + 1][j];
            s += a1[lev];
        }
        // Left null vector of S_0 with unit mass: transpose and replace one
        // balance equation by the normalization row.
        Matrix m = s.transposed();
        for (std::size_t j = 0; j < npos; ++j) m(npos - 1, j) = 1.0;
        std::vector<double> rhs(npos, 0.0);
        rhs[npos - 1] = 1.0;
        std::vector<double> level = numerics::solve(m, rhs);

        std::vector<double> pi(ctmc_.num_states(), 0.0);
        for (std::size_t lev = 0; lev < nlev; ++lev) {
            if (lev > 0) level = rmat[lev - 1].apply_left(level);
            for (std::size_t p = 0; p < npos; ++p)
                pi[lev * lev_stride + p * pos_stride] = level[p];
        }

        // Roundoff guard: clamp negligible negatives, reject anything worse,
        // then validate against the balance equations before trusting it.
        double total = 0.0;
        double peak = 0.0;
        for (double v : pi) peak = std::max(peak, std::abs(v));
        if (!(peak > 0.0) || !std::isfinite(peak)) return {};
        for (double& v : pi) {
            if (v < 0.0) {
                if (v < -1e-12 * peak) return {};
                v = 0.0;
            }
            total += v;
        }
        if (!std::isfinite(total) || total <= 0.0) return {};
        for (double& v : pi) v /= total;

        double max_flow = 0.0;
        double max_defect = 0.0;
        for (std::size_t st = 0; st < pi.size(); ++st) {
            const markov::Ctmc::InEdges in = ctmc_.in_edges(st);
            double inflow = 0.0;
            for (std::size_t e = 0; e < in.count; ++e) inflow += pi[in.from[e]] * in.rate[e];
            const double outflow = pi[st] * ctmc_.exit_rate(st);
            max_flow = std::max(max_flow, outflow);
            max_defect = std::max(max_defect, std::abs(inflow - outflow));
        }
        const double residual = max_flow > 0.0 ? max_defect / max_flow : max_defect;
        if (!(residual < 1e-8)) return {};

        if (obs::enabled()) {
            obs::registry().add_counter("chain.direct_solves");
            obs::SolverTelemetry rec;
            rec.solver = "lumped.direct";
            rec.iterations = 1;
            rec.residual = residual;
            rec.truncation = static_cast<double>(y_hi_);
            rec.wall_time_s = timer.stop();
            rec.converged = true;
            obs::registry().record_solver(std::move(rec));
        }
        return pi;
    } catch (const std::domain_error&) {
        return {};  // singular block: fall back to the iterative solver
    }
}

markov::SolveResult LumpedChain::stationary(double gs_tol) const {
    HAP_CHECK_FINITE(gs_tol);
    HAP_PRECOND(gs_tol > 0.0);
    markov::SolveResult res;
    res.pi = solve_direct();
    if (!res.pi.empty()) {
        res.converged = true;
        return res;
    }
    markov::SolveOptions opts;
    opts.tol = gs_tol;
    res = solve(opts);
    if (!res.converged)
        throw std::runtime_error("LumpedChain: modulating-chain solve did not converge");
    return res;
}

// ---------------------------------------------------------------------------
// GeneralChain
// ---------------------------------------------------------------------------

GeneralChain::GeneralChain(const HapParams& params, const ChainBounds& bounds)
    : x_lo_(params.permanent_users > 0 ? params.permanent_users : 0),
      x_hi_(params.permanent_users > 0
                ? params.permanent_users
                : (params.max_users > 0 && params.max_users < bounds.max_users
                       ? params.max_users
                       : bounds.max_users)),
      y_hi_(params.num_app_types(), bounds.max_apps_per_type),
      ctmc_([&] {
          if (bounds.max_apps_per_type == 0)
              throw std::invalid_argument("GeneralChain: per-type app bound is 0");
          std::size_t n = x_hi_ - x_lo_ + 1;
          for (std::size_t i = 0; i < params.num_app_types(); ++i)
              n *= bounds.max_apps_per_type + 1;
          if (n > 50'000'000)
              throw std::invalid_argument("GeneralChain: state space too large");
          return n;
      }()) {
    if (x_hi_ == 0 && params.permanent_users == 0)
        throw std::invalid_argument("GeneralChain: max_users bound is 0");
    if (params.max_apps > 0) {
        throw std::invalid_argument(
            "GeneralChain: a TOTAL application bound (max_apps) is only "
            "representable on the lumped homogeneous chain; heterogeneous "
            "lattices support per-type caps only");
    }
    build(params);
}

void GeneralChain::build(const HapParams& params) {
    const std::size_t l = params.num_app_types();
    // Flat index = (x - x_lo) * radix_[0] + sum_k y_k * radix_[k], row-major
    // with x slowest and y_l fastest: radix_[l] = 1,
    // radix_[k-1] = radix_[k] * (y_hi_[k-1] + 1).
    radix_.assign(l + 1, 1);
    for (std::size_t k = l; k >= 1; --k) radix_[k - 1] = radix_[k] * (y_hi_[k - 1] + 1);

    const bool dynamic_users = params.permanent_users == 0;
    const double lambda = params.user_arrival_rate;
    const double mu = params.user_departure_rate;

    arrival_rates_.assign(num_states(), 0.0);
    std::vector<std::size_t> coords(l + 1, 0);  // [x, y_1..y_l]
    coords[0] = x_lo_;
    for (std::size_t s = 0; s < num_states(); ++s) {
        const double x = static_cast<double>(coords[0]);
        double rate = 0.0;
        for (std::size_t i = 0; i < l; ++i)
            rate += static_cast<double>(coords[i + 1]) * params.apps[i].total_message_rate();
        arrival_rates_[s] = rate;

        if (dynamic_users) {
            if (coords[0] < x_hi_) ctmc_.add_transition(s, s + radix_[0], lambda);
            if (coords[0] > 0) ctmc_.add_transition(s, s - radix_[0], x * mu);
        }
        for (std::size_t i = 0; i < l; ++i) {
            const std::size_t yi = coords[i + 1];
            if (yi < y_hi_[i]) {
                ctmc_.add_transition(s, s + radix_[i + 1], x * params.apps[i].arrival_rate);
            }
            if (yi > 0) {
                ctmc_.add_transition(s, s - radix_[i + 1],
                                     static_cast<double>(yi) * params.apps[i].departure_rate);
            }
        }

        // Advance mixed-radix coordinates (x slowest).
        for (std::size_t k = l + 1; k-- > 0;) {
            const std::size_t cap = (k == 0) ? (x_hi_ - x_lo_) : y_hi_[k - 1];
            std::size_t& c = coords[k];
            const std::size_t base = (k == 0) ? x_lo_ : 0;
            if (c - base < cap) {
                ++c;
                break;
            }
            c = base;
        }
    }
    ctmc_.finalize();
}

std::size_t GeneralChain::index_of(const std::vector<std::size_t>& coords) const {
    std::size_t idx = (coords[0] - x_lo_) * radix_[0];
    for (std::size_t i = 1; i < coords.size(); ++i) idx += coords[i] * radix_[i];
    return idx;
}

std::vector<std::size_t> GeneralChain::decode(std::size_t idx) const {
    std::vector<std::size_t> coords(y_hi_.size() + 1, 0);
    coords[0] = x_lo_ + idx / radix_[0];
    idx %= radix_[0];
    for (std::size_t i = 1; i <= y_hi_.size(); ++i) {
        coords[i] = idx / radix_[i];
        idx %= radix_[i];
    }
    return coords;
}

numerics::Matrix GeneralChain::dense_generator() const {
    return detail::dense_from_ctmc(ctmc_);
}

traffic::Mmpp GeneralChain::to_mmpp() const {
    return traffic::Mmpp(dense_generator(), arrival_rates_, 0);
}

markov::SolveResult GeneralChain::solve(const markov::SolveOptions& opts) const {
    return markov::solve_steady_state(ctmc_, opts);
}

// ---------------------------------------------------------------------------

numerics::Matrix detail::dense_from_ctmc(const markov::Ctmc& chain) {
    const std::size_t n = chain.num_states();
    if (n > 5000)
        throw std::invalid_argument("dense_from_ctmc: state space too large for dense form");
    numerics::Matrix q(n, n);
    for (std::size_t from = 0; from < n; ++from) {
        const markov::Ctmc::OutEdges out = chain.out_edges(from);
        for (std::size_t e = 0; e < out.count; ++e) {
            q(from, out.to[e]) += out.rate[e];
            q(from, from) -= out.rate[e];
        }
    }
    return q;
}

}  // namespace hap::core
