#include "markov/ctmc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::markov {

Ctmc::Ctmc(std::size_t num_states) : n_(num_states) {
    if (num_states == 0) throw std::invalid_argument("Ctmc: zero states");
    if (num_states > UINT32_MAX)
        throw std::invalid_argument("Ctmc: too many states for the 32-bit index envelope");
    builder().begin(n_, n_);
    exit_rates_.assign(n_, 0.0);
}

Ctmc::Ctmc(std::size_t num_states, CsrBuilder& builder_arena)
    : n_(num_states), shared_(&builder_arena) {
    if (num_states == 0) throw std::invalid_argument("Ctmc: zero states");
    if (num_states > UINT32_MAX)
        throw std::invalid_argument("Ctmc: too many states for the 32-bit index envelope");
    builder().begin(n_, n_);
    exit_rates_.assign(n_, 0.0);
}

void Ctmc::add_transition(std::size_t from, std::size_t to, double rate) {
    if (finalized_) throw std::logic_error("Ctmc: add_transition after finalize");
    if (from >= n_ || to >= n_) throw std::out_of_range("Ctmc: state out of range");
    if (from == to) throw std::invalid_argument("Ctmc: self-loop");
    HAP_CHECK_FINITE(rate);  // a NaN rate passes every comparison below
    if (rate < 0.0) throw std::invalid_argument("Ctmc: negative rate");
    if (rate == 0.0) return;  // haplint: allow(float-equality) exact zero = edge absent, by construction
    builder().add(from, to, rate);
    // Exit rates accumulate in insertion order (the order callers add
    // transitions), independent of how build() later merges duplicates.
    exit_rates_[from] += rate;
}

void Ctmc::finalize() {
    if (finalized_) return;
    CsrBuilder& b = builder();
    b.build(out_);
    // The transpose's rows are each state's in-edges in ascending source
    // order: Gauss-Seidel then reads pi[from[k]] in ascending address order,
    // turning the inner product into mostly-sequential loads.
    b.transpose(out_, in_);
    finalized_ = true;
}

Ctmc::InEdges Ctmc::in_edges(std::size_t s) const {
    if (!finalized_) throw std::logic_error("Ctmc: not finalized");
    if (s >= n_) throw std::out_of_range("Ctmc: state out of range");
    const Csr::Row r = in_.row(s);
    return InEdges{r.idx, r.val, r.count};
}

Ctmc::OutEdges Ctmc::out_edges(std::size_t s) const {
    if (!finalized_) throw std::logic_error("Ctmc: not finalized");
    if (s >= n_) throw std::out_of_range("Ctmc: state out of range");
    const Csr::Row r = out_.row(s);
    return OutEdges{r.idx, r.val, r.count};
}

const Csr& Ctmc::in_matrix() const {
    if (!finalized_) throw std::logic_error("Ctmc: not finalized");
    return in_;
}

namespace {

constexpr std::size_t kMaxIter = 200000;
constexpr std::size_t kCheckEvery = 10;

// Returns false when the iterate's total mass is non-finite or non-positive:
// a diverged iterate must abort the solve as non-converged rather than be
// left stale (a stale vector can pass the relative-change check and report a
// garbage distribution as "converged").
[[nodiscard]] bool normalize(std::vector<double>& pi) {
    double total = 0.0;
    for (double v : pi) total += v;
    if (!std::isfinite(total) || total <= 0.0) return false;
    const double inv = 1.0 / total;
    for (double& v : pi) v *= inv;
    return true;
}

using Clock = std::chrono::steady_clock;

// `loop_start` is the start of the iteration loop (for sweep_time_s /
// states_per_sec).
void record_solve(const char* solver, const SolveResult& res, std::size_t n,
                  obs::ScopedTimer& timer, Clock::time_point loop_start) {
    if (!obs::enabled()) return;
    obs::SolverTelemetry t;
    t.solver = solver;
    t.iterations = static_cast<std::uint64_t>(res.iterations);
    t.residual = res.residual;
    t.truncation = n;
    t.wall_time_s = timer.stop();
    t.converged = res.converged;
    const std::chrono::duration<double> loop = Clock::now() - loop_start;
    t.sweep_time_s = loop.count();
    if (t.sweep_time_s > 0.0 && res.iterations > 0)
        t.states_per_sec = static_cast<double>(res.iterations) *
                           static_cast<double>(n) / t.sweep_time_s;
    obs::registry().record_solver(std::move(t));
}

// The degenerate-mass exit shared by both solvers: mark non-converged,
// surface an infinite residual, and leave a telemetry trail.
void abort_degenerate(const char* solver, SolveResult& res, std::size_t iter,
                      std::size_t n, obs::ScopedTimer& timer,
                      Clock::time_point loop_start) {
    res.iterations = iter;
    res.residual = std::numeric_limits<double>::infinity();
    res.converged = false;
    if (obs::enabled()) obs::registry().add_counter("ctmc.degenerate_mass");
    record_solve(solver, res, n, timer, loop_start);
}

// The contraction ratio of two consecutive difference vectors,
// r = <d_cur, d_prev> / <d_prev, d_prev> (Lyusternik's estimate). Returns a
// quiet NaN when the denominator degenerates.
double contraction_ratio(const std::vector<double>& a, const std::vector<double>& b,
                         const std::vector<double>& c) {
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d1 = b[i] - a[i];
        const double d2 = c[i] - b[i];
        num += d2 * d1;
        den += d1 * d1;
    }
    return den > 0.0 ? num / den : std::numeric_limits<double>::quiet_NaN();
}

// Aitken-style vector extrapolation from four consecutive checked iterates
// (h0, h1, h2, x), written over x when accepted. A single contraction ratio
// r = <d2, d1> / <d1, d1> is estimated from consecutive difference vectors
// (Lyusternik's method); when the error is dominated by one geometric mode —
// the nearly-decomposable HAP regime — jumping x + d * r / (1 - r) lands
// near the fixed point. The jump's gain r / (1 - r) grows without bound as
// r -> 1, so a noisy estimate overshoots catastrophically: the extrapolation
// therefore requires the ratio estimated over (h0, h1, h2) and the one over
// (h1, h2, x) to AGREE to within a tenth of the remaining contraction —
// evidence the iteration actually is in its asymptotic single-mode regime,
// which is the only regime where the formula is valid. Componentwise Aitken
// is deliberately avoided: with several slow modes its per-entry
// denominators misfire and destabilize the Gauss-Seidel sweep. Rejected —
// leaving x untouched — when either ratio is not a clean contraction
// (outside (0, 0.995)), the two disagree, the step norm has shrunk to the
// rounding floor (the gain would only amplify noise, stalling the residual
// just above tol forever), any extrapolated entry is non-finite or
// meaningfully negative, or the total mass degenerates; tiny negative
// undershoots are clamped to zero.
bool aitken_extrapolate(const std::vector<double>& h0, const std::vector<double>& h1,
                        const std::vector<double>& h2, std::vector<double>& x,
                        std::vector<double>& scratch) {
    const std::size_t n = x.size();
    double step2 = 0.0;
    double xnorm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = x[i] - h2[i];
        step2 += d * d;
        xnorm2 += x[i] * x[i];
    }
    if (step2 <= 1e-24 * xnorm2) return false;
    const double r_prev = contraction_ratio(h0, h1, h2);
    const double r = contraction_ratio(h1, h2, x);
    if (!std::isfinite(r_prev) || r_prev <= 0.0 || r_prev >= 0.995) return false;
    if (!std::isfinite(r) || r <= 0.0 || r >= 0.995) return false;
    if (std::abs(r - r_prev) > 0.1 * (1.0 - r)) return false;
    const double gain = r / (1.0 - r);
    scratch.resize(n);
    double positive = 0.0;
    double negative = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = x[i] + (x[i] - h2[i]) * gain;
        if (!std::isfinite(v)) return false;
        if (v >= 0.0)
            positive += v;
        else
            negative -= v;
        scratch[i] = v;
    }
    // "Leaves the simplex": reject when the negative overshoot is more than a
    // rounding-level fraction of the mass, or the mass itself degenerated.
    if (!(positive > 0.0) || negative > 1e-10 * positive) return false;
    for (double& v : scratch) v = std::max(v, 0.0);
    x.swap(scratch);
    return normalize(x);
}

// Aitken acceleration and its residual fuses, shared by both solvers. Call
// on_check at every checked iterate that did not converge. Fuses:
// extrapolation must keep the checked residual moving down. Two consecutive
// non-improving checks after accepted extrapolations mean the slow modes
// alias the scalar ratio estimate (nearly decomposable spectra do this); and
// a long stretch with no new best residual catches the subtler limit cycle
// where clustered slow modes trade the error back and forth — residual
// oscillating, improving often enough to dodge the first fuse, converging
// never. Either way acceleration is disabled and plain iteration finishes,
// so the accelerated path can stall but never diverge. The history (three
// previous checked iterates plus scratch) is allocated lazily.
class Accelerator {
public:
    // `may_extrapolate` is false on the last iteration, whose
    // iterate must stay the one the residual describes.
    void on_check(SolveResult& res, bool may_extrapolate) {
        if (on_ && res.accelerations > 0) {
            if (res.residual >= prev_check_) {
                if (++worse_checks_ >= 2) fuse();
            } else {
                worse_checks_ = 0;
            }
            if (on_ && ++checks_since_best_ >= 20) fuse();
        }
        if (res.residual < 0.99 * best_residual_) {
            best_residual_ = res.residual;
            checks_since_best_ = 0;
        }
        prev_check_ = res.residual;
        if (!on_ || !may_extrapolate) return;
        if (hist_ >= 3 && aitken_extrapolate(h0_, h1_, h2_, res.pi, scratch_)) {
            ++res.accelerations;
            hist_ = 0;  // extrapolated point starts a fresh sequence
            if (obs::enabled()) obs::registry().add_counter("ctmc.accel_steps");
        } else {
            h0_.swap(h1_);
            h1_.swap(h2_);
            h2_ = res.pi;
            if (hist_ < 3) ++hist_;
        }
    }

private:
    void fuse() {
        on_ = false;
        if (obs::enabled()) obs::registry().add_counter("ctmc.accel_fused");
    }

    bool on_ = true;
    std::vector<double> h0_, h1_, h2_, scratch_;
    std::size_t hist_ = 0;
    double prev_check_ = std::numeric_limits<double>::infinity();
    std::size_t worse_checks_ = 0;
    double best_residual_ = std::numeric_limits<double>::infinity();
    std::size_t checks_since_best_ = 0;
};

// Converged steady-state output must be a probability vector; a solver that
// diverged to NaN or negative mass fails here, not in the caller's tables.
void check_distribution(const std::vector<double>& pi) {
    for (double p : pi) HAP_CHECK_PROB(p);
}

double max_relative_change(const std::vector<double>& a, const std::vector<double>& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // States with negligible mass are compared absolutely, not
        // relatively, so the stopping rule is not hostage to 1e-100 states.
        const double scale = std::max(b[i], 1e-14);
        worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
    }
    return worst;
}

}  // namespace

SolveResult solve_steady_state(const Ctmc& chain, const SolveOptions& opts) {
    if (!chain.finalized()) throw std::logic_error("solve_steady_state: finalize first");
    obs::ScopedTimer timer("ctmc.gs_s");
    const std::size_t n = chain.num_states();
    const Csr& in = chain.in_matrix();
    const double* exit_rates = chain.exit_rates().data();

    SolveResult res;
    res.pi.assign(n, 1.0 / static_cast<double>(n));
    // The residual is folded into the check sweep itself, so the plain path
    // never copies the full iterate.
    Accelerator accel;
    const Clock::time_point loop_start = Clock::now();

    for (std::size_t iter = 1; iter <= kMaxIter; ++iter) {
        // The last iteration is a forced check so the reported residual is
        // always fresh, never stale from a skipped window.
        const bool check = (iter % kCheckEvery) == 0 || iter == kMaxIter;
        const double worst = gs_sweep_natural(in, exit_rates, res.pi.data(), check);
        if (!normalize(res.pi)) {
            abort_degenerate("ctmc.gs", res, iter, n, timer, loop_start);
            return res;
        }
        if (check) {
            res.residual = worst;
            res.iterations = iter;
            if (res.residual < opts.tol) {
                res.converged = true;
                check_distribution(res.pi);
                record_solve("ctmc.gs", res, n, timer, loop_start);
                return res;
            }
            accel.on_check(res, iter < kMaxIter);
        }
    }
    record_solve("ctmc.gs", res, n, timer, loop_start);
    return res;
}

SolveResult solve_steady_state_power(const Ctmc& chain, const SolveOptions& opts) {
    if (!chain.finalized()) throw std::logic_error("solve_steady_state_power: finalize first");
    obs::ScopedTimer timer("ctmc.power_s");
    const std::size_t n = chain.num_states();
    const Csr& in = chain.in_matrix();
    const double* exit_rates = chain.exit_rates().data();
    double lambda = 0.0;
    for (std::size_t s = 0; s < n; ++s) lambda = std::max(lambda, exit_rates[s]);
    lambda *= 1.02;  // strict uniformization constant avoids periodicity
    if (lambda <= 0.0) throw std::invalid_argument("solve_steady_state_power: empty chain");

    SolveResult res;
    res.pi.assign(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n);
    Accelerator accel;
    const Clock::time_point loop_start = Clock::now();

    for (std::size_t iter = 1; iter <= kMaxIter; ++iter) {
        const bool check = (iter % kCheckEvery) == 0 || iter == kMaxIter;
        // next = pi * (I + Q / lambda), gather form over the in-matrix.
        uniformized_step(in, exit_rates, lambda, res.pi.data(), next.data());
        res.pi.swap(next);
        if (!normalize(res.pi)) {
            abort_degenerate("ctmc.power", res, iter, n, timer, loop_start);
            return res;
        }
        if (check) {
            // After the swap, `next` still holds the previous normalized
            // iterate, so the convergence check needs no extra copy.
            res.residual = max_relative_change(res.pi, next);
            res.iterations = iter;
            if (res.residual < opts.tol) {
                res.converged = true;
                check_distribution(res.pi);
                record_solve("ctmc.power", res, n, timer, loop_start);
                return res;
            }
            accel.on_check(res, iter < kMaxIter);
        }
    }
    record_solve("ctmc.power", res, n, timer, loop_start);
    return res;
}

}  // namespace hap::markov
