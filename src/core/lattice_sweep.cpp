#include "core/lattice_sweep.hpp"

#include <algorithm>
#include <cmath>

namespace hap::core::detail {

namespace {

// Every rounding below is spelled out: this file is compiled with
// -ffp-contract=off (src/core/CMakeLists.txt), and each std::fma marks a
// multiply-add that the reference lexicographic sweep (the oracle in
// tests/solution0_test.cpp) fuses. So the lattice bytes and the observables
// depend neither on the compiler's contraction choices nor on how the lane
// loops are unrolled or inlined.

// Lines solved together, interleaved lane by lane so the Thomas recurrences
// of different lines overlap instead of each waiting on its own divides.
constexpr std::size_t kLanes = 8;

// Narrowest x-block a team sweep hands a thread. Narrower blocks fill fewer
// lanes per group and sync more often per line.
constexpr std::size_t kMinBlockWidth = 5;

// One group of up to kLanes independent lines, structure-of-arrays so the
// per-z lane loops vectorize.
struct LineGroup {
    std::size_t lanes = 0;
    double* cur[kLanes];
    const double* xlo[kLanes];  // neighbor lines; the zero line when outside the box
    const double* xhi[kLanes];
    const double* ylo[kLanes];
    const double* yhi[kLanes];
    double w_xlo[kLanes], w_xhi[kLanes], w_ylo[kLanes], w_yhi[kLanes];
    double arr[kLanes];
    double b0[kLanes];      // diagonal at z = 0
    double b_mid[kLanes];   // diagonal at 0 < z < z_hi
    double b_last[kLanes];  // diagonal at z = z_hi
};

// Tridiagonal system along z, per line:
//   -arr * p[z-1] + out(z) * p[z] - mu2 * p[z+1] = S(z),
// out(z) = out_base + arr [z < z_hi] + mu2 [z > 0], S(z) the lateral inflow.
// Diagonally dominant (out >= arr + mu2 + lateral), so Thomas is stable.
// Every lane runs exactly the scalar recurrence of a single line.
//
// kFixed is the lane count when known at compile time, else 0. One-line
// groups (the corner anti-diagonals of every box, and every group when users
// are pinned, nx = 1) run with kFixed = 1, which keeps a lone line's
// recurrences in registers; with a run-time count they go through the
// scratch memory on every z step, and a pinned-user sweep runs at ~0.8x the
// lexicographic sweep instead of ~1.0x.
template <std::size_t kFixed>
void solve_group(const LatticeGrid& g, const LatticeRates& r, const LineGroup& k,
                 LineWorkspace& ws) {
    const std::size_t nz = g.nz;
    const std::size_t n = kFixed ? kFixed : k.lanes;
    double* cp = ws.cp.data();
    double* rhs = ws.rhs.data();

    // Lateral inflow S(z) from the four neighbor lines, into [z][lane]. The
    // scratch rows are n lanes wide, so a short group stays contiguous.
    for (std::size_t l = 0; l < n; ++l) {
        const double* xlo = k.xlo[l];
        const double* xhi = k.xhi[l];
        const double* ylo = k.ylo[l];
        const double* yhi = k.yhi[l];
        for (std::size_t z = 0; z < nz; ++z) {
            double s = 0.0;
            s = std::fma(k.w_xlo[l], xlo[z], s);
            s = std::fma(k.w_xhi[l], xhi[z], s);
            s = std::fma(k.w_ylo[l], ylo[z], s);
            s = std::fma(k.w_yhi[l], yhi[z], s);
            rhs[z * n + l] = s;
        }
    }

    // Thomas pivots denom and coefficients cp. They depend on the line
    // constants only, not on the data, and along z they reach a fixed
    // point: once cp[z] equals cp[z-1] in every lane, every later interior
    // row repeats row z. So the recurrence stops there and rows past
    // `settled` read row `settled`; the last row (z = z_hi) has its own
    // diagonal. This halves the divides of a sweep.
    double* denom = ws.denom.data();
    double denom_last[kLanes];
    for (std::size_t l = 0; l < n; ++l) cp[l] = -r.mu2 / k.b0[l];
    const std::size_t last = nz - 1;
    std::size_t settled = last;
    for (std::size_t z = 1; z < last; ++z) {
        const double* cp_prev = cp + (z - 1) * n;
        double* cp_z = cp + z * n;
        double* denom_z = denom + z * n;
        bool repeats = true;
        for (std::size_t l = 0; l < n; ++l) {
            // The sub-diagonal is -arr, the super-diagonal -mu2.
            denom_z[l] = std::fma(k.arr[l], cp_prev[l], k.b_mid[l]);
            cp_z[l] = -r.mu2 / denom_z[l];
            repeats &= cp_z[l] == cp_prev[l];  // haplint: allow(float-equality) exact fixed point of a deterministic recurrence
        }
        if (repeats) {
            settled = z;
            break;
        }
    }
    if (last > 0) {
        const double* cp_prev = cp + std::min(last - 1, settled) * n;
        for (std::size_t l = 0; l < n; ++l)
            denom_last[l] = std::fma(k.arr[l], cp_prev[l], k.b_last[l]);
    }

    // Forward elimination of the right-hand side: one dependent fma and
    // divide per z and lane.
    for (std::size_t l = 0; l < n; ++l) rhs[l] /= k.b0[l];
    for (std::size_t z = 1; z < nz; ++z) {
        const double* d = z == last ? denom_last : denom + std::min(z, settled) * n;
        const double* rhs_prev = rhs + (z - 1) * n;
        double* rhs_z = rhs + z * n;
        for (std::size_t l = 0; l < n; ++l)
            rhs_z[l] = std::fma(k.arr[l], rhs_prev[l], rhs_z[l]) / d[l];
    }

    // Back substitution, straight out to the lines.
    double next[kLanes];
    for (std::size_t l = 0; l < n; ++l) {
        next[l] = rhs[last * n + l];
        k.cur[l][last] = next[l];
    }
    for (std::size_t z = last; z-- > 0;) {
        const double* rhs_z = rhs + z * n;
        const double* cp_z = cp + std::min(z, settled) * n;
        for (std::size_t l = 0; l < n; ++l) {
            next[l] = std::fma(-cp_z[l], next[l], rhs_z[l]);
            k.cur[l][z] = next[l];
        }
    }
}

}  // namespace

LatticeGrid make_lattice_grid(std::size_t x_lo, std::size_t x_hi, std::size_t y_hi,
                              std::size_t z_hi) noexcept {
    LatticeGrid g{};
    g.x_lo = x_lo;
    g.x_hi = x_hi;
    g.y_hi = y_hi;
    g.z_hi = z_hi;
    g.nx = x_hi - x_lo + 1;
    g.ny = y_hi + 1;
    g.nz = z_hi + 1;
    return g;
}

namespace {

// Sized by the caller before a team sweep, so no helper thread allocates.
void fit_workspace(LineWorkspace& ws, std::size_t nz) {
    ws.cp.resize(nz * kLanes);
    ws.denom.resize(nz * kLanes);
    ws.rhs.resize(nz * kLanes);
    if (ws.zero.size() != nz) ws.zero.assign(nz, 0.0);
}

// Gauss-Seidel over (x, y) lines in lexicographic order reads the x-1 and
// y-1 neighbor lines after this sweep updated them and the x+1 and y+1 lines
// before. Visiting anti-diagonals xi + yi = d in order reads exactly the same
// values — the d-1 lines are done, the d+1 lines untouched — so the lines of
// one anti-diagonal are independent and are solved kLanes at a time. The
// reverse sweep walks the anti-diagonals backwards, mirroring it.
//
// A block clips every anti-diagonal to its x-range. Only its edge line next
// to the upstream block touches another block's lines: it reads the upstream
// line of the previous anti-diagonal, which must hold this sweep's values,
// and the upstream block's edge line reads it one anti-diagonal earlier,
// which must still see the last sweep's. Both hold when the block starts
// step di only after the upstream block has finished step di - 1.
void sweep_block(const LatticeGrid& g, const LatticeRates& r, double* pi, bool forward,
                 LineWorkspace& ws, std::size_t xi_begin, std::size_t xi_end,
                 const parallel::Progress* upstream, parallel::Progress* published) {
    const std::size_t nz = g.nz;
    const std::size_t xy_stride = g.ny * nz;
    const double* zero = ws.zero.data();

    LineGroup k;
    const std::size_t diagonals = g.nx + g.ny - 1;
    for (std::size_t di = 0; di < diagonals; ++di) {
        const std::size_t d = forward ? di : diagonals - 1 - di;
        const std::size_t xi_first = std::max(xi_begin, d < g.ny ? 0 : d - (g.ny - 1));
        const std::size_t xi_last = std::min({d, g.nx - 1, xi_end - 1});
        if (xi_first <= xi_last && upstream != nullptr)
            upstream->wait_at_least(static_cast<std::uint32_t>(di));
        for (std::size_t xi0 = xi_first; xi0 <= xi_last; xi0 += kLanes) {
            k.lanes = std::min(kLanes, xi_last + 1 - xi0);
            for (std::size_t l = 0; l < k.lanes; ++l) {
                const std::size_t xi = xi0 + l;
                const std::size_t y = d - xi;
                double* cur = pi + xi * xy_stride + y * nz;
                k.cur[l] = cur;
                k.xlo[l] = xi > 0 ? cur - xy_stride : zero;
                k.xhi[l] = xi + 1 < g.nx ? cur + xy_stride : zero;
                k.ylo[l] = y > 0 ? cur - nz : zero;
                k.yhi[l] = y < g.y_hi ? cur + nz : zero;

                // Line constants: the lateral inflow weights, the message
                // arrival rate arr, and the diagonal out(z) at z = 0,
                // 0 < z < z_hi and z = z_hi.
                const double xd = static_cast<double>(g.x_lo + xi);
                const double yd = static_cast<double>(y);
                const double arr = yd * r.beta;
                k.w_xlo[l] = r.lambda;
                k.w_xhi[l] = (xd + 1.0) * r.mu;
                k.w_ylo[l] = xd * r.alpha;
                k.w_yhi[l] = (yd + 1.0) * r.mu1;
                k.arr[l] = arr;
                double out_base = yd * r.mu1;
                if (r.dynamic_users) {
                    if (xi + 1 < g.nx) out_base += r.lambda;
                    out_base = std::fma(xd, r.mu, out_base);
                }
                if (y < g.y_hi) out_base += k.w_ylo[l];
                double b0 = out_base + (g.z_hi > 0 ? arr : 0.0);
                if (b0 <= 0.0) b0 = 1.0;  // isolated state; keeps div sane
                k.b0[l] = b0;
                k.b_mid[l] = out_base + r.mu2 + arr;
                k.b_last[l] = out_base + r.mu2 + 0.0;
            }
            if (k.lanes == 1)
                solve_group<1>(g, r, k, ws);
            else
                solve_group<0>(g, r, k, ws);
        }
        if (published != nullptr) published->set(static_cast<std::uint32_t>(di + 1));
    }
}

}  // namespace

void sweep_lattice(const LatticeGrid& g, const LatticeRates& r, std::vector<double>& pi,
                   bool forward, LineWorkspace& ws) {
    fit_workspace(ws, g.nz);
    sweep_block(g, r, pi.data(), forward, ws, 0, g.nx, nullptr, nullptr);
}

// mean_z, the throughput and the sigma sums are fused multiply-adds, mean_x
// and mean_y a product and a separate sum: the roundings the golden values
// were pinned with. Each accumulator sees its states in lattice order, so
// the sums are bit-equal to a per-state loop that branches on the faces (the
// oracle in tests/solution0_test.cpp). Here the face tests are per line, the
// z = 0 and z = z_hi states are peeled, and the accumulators live in locals,
// so the interior loop carries no branch and no store.
LatticeObservables measure_lattice(const LatticeGrid& g, const LatticeRates& r,
                                   TruncationCuts cuts, const std::vector<double>& pi) {
    const std::size_t last = g.z_hi;
    const double last_d = static_cast<double>(last);
    double mean_z = 0.0, mean_x = 0.0, mean_y = 0.0, busy = 0.0;
    double throughput = 0.0, sigma_num = 0.0;
    double boundary = 0.0, boundary_y = 0.0, boundary_z = 0.0;
    const double* line = pi.data();
    for (std::size_t x = g.x_lo; x <= g.x_hi; ++x) {
        const double xd = static_cast<double>(x);
        for (std::size_t y = 0; y <= g.y_hi; ++y, line += g.nz) {
            const double yd = static_cast<double>(y);
            const double arr = yd * r.beta;
            const bool top_y = y == g.y_hi;
            const bool face = (cuts.x && x == g.x_hi) || (cuts.y && top_y);
            if (last > 0) {
                const double p0 = line[0];
                mean_z = std::fma(p0, 0.0, mean_z);
                mean_x += p0 * xd;
                mean_y += p0 * yd;
                throughput = std::fma(p0, arr, throughput);
                for (std::size_t z = 1; z < last; ++z) {
                    const double p = line[z];
                    mean_z = std::fma(p, static_cast<double>(z), mean_z);
                    mean_x += p * xd;
                    mean_y += p * yd;
                    busy += p;
                    throughput = std::fma(p, arr, throughput);
                    sigma_num = std::fma(p, arr, sigma_num);
                }
                if (face)
                    for (std::size_t z = 0; z < last; ++z) boundary += line[z];
                if (top_y)
                    for (std::size_t z = 0; z < last; ++z) boundary_y += line[z];
            }
            // z = z_hi: always on the truncation face, never an arrival.
            const double p = line[last];
            mean_z = std::fma(p, last_d, mean_z);
            mean_x += p * xd;
            mean_y += p * yd;
            if (last > 0) busy += p;
            boundary += p;
            if (top_y) boundary_y += p;
            boundary_z += p;
        }
    }
    // sigma_den sums exactly the throughput's fma sequence (z < z_hi).
    return {.mean_z = mean_z, .throughput = throughput, .busy = busy,
            .sigma_num = sigma_num, .sigma_den = throughput, .mean_x = mean_x,
            .mean_y = mean_y, .boundary = boundary, .boundary_y = boundary_y,
            .boundary_z = boundary_z};
}

namespace {

// Scale one line to `target` mass, or put all of it at z = 0 when the line
// holds none. `total` is the line's ascending-z sum, `open` the same sum
// stopped before z_hi and `zsum` the line's z moment; with `m`, the scaled
// line's moments go to its slot `line`.
void scale_line(double* cur, std::size_t nz, double total, double open, double zsum,
                double target, LineMoments* m, std::size_t line) {
    if (total > 0.0) {
        const double f = target / total;
        for (std::size_t z = 0; z < nz; ++z) cur[z] *= f;
        if (m != nullptr) {
            m->z[line] = zsum * f;
            m->open[line] = open * f;
        }
    } else {
        for (std::size_t z = 0; z < nz; ++z) cur[z] = 0.0;
        cur[0] = target;
        if (m != nullptr) {
            m->z[line] = 0.0;
            m->open[line] = nz > 1 ? target : 0.0;
        }
    }
}

// Project lines [line, end): kLanes lines at a time, one independent
// ascending-z sum per line, so the adds of different lines overlap instead
// of each waiting on the last. The z < z_hi prefix of that sum is the line's
// open mass; the z moment rides along as one fma per state.
void project_lines(std::size_t nz, const double* marginal, double* pi, std::size_t line,
                   std::size_t end, LineMoments* m) {
    const std::size_t last = nz - 1;
    const double last_d = static_cast<double>(last);
    for (; line + kLanes <= end; line += kLanes) {
        double* cur = pi + line * nz;
        double open[kLanes] = {};
        double zsum[kLanes] = {};
        for (std::size_t z = 0; z < last; ++z) {
            const double zd = static_cast<double>(z);
            for (std::size_t k = 0; k < kLanes; ++k) {
                const double p = cur[k * nz + z];
                open[k] += p;
                zsum[k] = std::fma(p, zd, zsum[k]);
            }
        }
        for (std::size_t k = 0; k < kLanes; ++k) {
            const double p = cur[k * nz + last];
            scale_line(cur + k * nz, nz, open[k] + p, open[k], std::fma(p, last_d, zsum[k]),
                       marginal[line + k], m, line + k);
        }
    }
    for (; line < end; ++line) {
        double* cur = pi + line * nz;
        double open = 0.0;
        double zsum = 0.0;
        for (std::size_t z = 0; z < last; ++z) {
            open += cur[z];
            zsum = std::fma(cur[z], static_cast<double>(z), zsum);
        }
        const double p = cur[last];
        scale_line(cur, nz, open + p, open, std::fma(p, last_d, zsum), marginal[line], m,
                   line);
    }
}

void fit_moments(LineMoments& m, std::size_t lines) {
    m.z.resize(lines);
    m.open.resize(lines);
}

}  // namespace

void project_marginal(const LatticeGrid& g, const std::vector<double>& marginal,
                      std::vector<double>& pi, LineMoments* moments) {
    if (moments != nullptr) fit_moments(*moments, g.nx * g.ny);
    project_lines(g.nz, marginal.data(), pi.data(), 0, g.nx * g.ny, moments);
}

CheckMoments sum_line_moments(const LatticeGrid& g, const LatticeRates& r,
                              const LineMoments& m) {
    CheckMoments c;
    std::size_t line = 0;
    for (std::size_t xi = 0; xi < g.nx; ++xi) {
        for (std::size_t y = 0; y < g.ny; ++y, ++line) {
            c.mean_z += m.z[line];
            c.throughput = std::fma(m.open[line], static_cast<double>(y) * r.beta, c.throughput);
        }
    }
    return c;
}

StopDecision stop_rule(double change, double prev_change, double tol) noexcept {
    if (change <= 0.0) return {0.0, true};  // nothing moved: a fixed point
    const double q = prev_change > 0.0 ? change / prev_change : 1.0;
    if (!(q < 1.0)) return {change, false};  // not contracting (or NaN)
    const double residual = std::max(change, change * q / (1.0 - q));
    return {residual, residual < tol};
}

std::size_t sweep_blocks(std::size_t nx, std::size_t threads) noexcept {
    return std::clamp<std::size_t>(nx / kMinBlockWidth, 1, std::max<std::size_t>(threads, 1));
}

// Block b holds x columns [b * nx / blocks, (b + 1) * nx / blocks). Worker w
// runs a contiguous run of blocks, upstream first, so with fewer workers
// than blocks every wait is on a block that is already done or running
// elsewhere. A block is projected once both neighbors, the only blocks that
// read its lines, have finished the sweep.
void sweep_and_project(const LatticeGrid& g, const LatticeRates& r,
                       const std::vector<double>& marginal, std::vector<double>& pi,
                       bool forward, std::size_t blocks, TeamSweep& team) {
    blocks = std::clamp<std::size_t>(blocks, 1, g.nx);
    if (team.ws.size() < blocks) team.ws.resize(blocks);
    if (blocks == 1) {
        sweep_lattice(g, r, pi, forward, team.ws[0]);
        project_marginal(g, marginal, pi, &team.moments);
        return;
    }
    fit_moments(team.moments, g.nx * g.ny);
    for (std::size_t b = 0; b < blocks; ++b) fit_workspace(team.ws[b], g.nz);
    // Atomics do not move, so a longer counter array is built afresh.
    if (team.progress.size() < blocks) team.progress = std::vector<BlockProgress>(blocks);
    for (std::size_t b = 0; b < blocks; ++b) team.progress[b].steps.set(0);

    const std::size_t workers =
        team.lease != nullptr ? std::min(blocks, team.lease->threads()) : 1;
    const auto steps = static_cast<std::uint32_t>(g.nx + g.ny - 1);
    auto work = [&](std::size_t w) {
        const std::size_t first = w * blocks / workers;
        const std::size_t last = (w + 1) * blocks / workers;
        for (std::size_t i = first; i < last; ++i) {
            const std::size_t b = forward ? i : first + last - 1 - i;
            const std::size_t up = forward ? b - 1 : b + 1;
            const bool has_up = forward ? b > 0 : b + 1 < blocks;
            sweep_block(g, r, pi.data(), forward, team.ws[b], b * g.nx / blocks,
                        (b + 1) * g.nx / blocks,
                        has_up ? &team.progress[up].steps : nullptr,
                        &team.progress[b].steps);
        }
        for (std::size_t b = first; b < last; ++b) {
            if (b > 0) team.progress[b - 1].steps.wait_at_least(steps);
            if (b + 1 < blocks) team.progress[b + 1].steps.wait_at_least(steps);
            project_lines(g.nz, marginal.data(), pi.data(), b * g.nx / blocks * g.ny,
                          (b + 1) * g.nx / blocks * g.ny, &team.moments);
        }
    };
    if (workers == 1)
        work(0);
    else
        team.lease->run(workers, work);
}

}  // namespace hap::core::detail
