// Ablation: truncation sensitivity of the exact solvers on the baseline HAP.
//
// The paper reports a single Solution-0 number (0.55) and remarks that the
// z bound must be "much larger" than the x/y bounds. This ablation shows WHY
// the choice matters so much: the stationary mean queue of the baseline is
// dominated by rare deep excursions of the modulating chain (the mountains
// of Figs. 14-15), so the measured delay grows steadily as either the queue
// bound (Solution 0) or the modulating bounds (Solution 3, z-exact) are
// widened — long after the truncated probability mass looks negligible.
// Simulation (5e7 model-seconds) puts the truth near 0.5.
#include <cstdio>

#include "bench_util.hpp"
#include "core/hap.hpp"

int main() {
    using namespace hap::core;
    hap::bench::header("Ablation", "truncation sensitivity of Solutions 0 and 3");
    hap::bench::paper_note(
        "paper gives one Solution-0 point (0.55) and notes the z bound "
        "dominates; the heavy tail makes every truncation visible");

    const HapParams p = HapParams::paper_baseline(20.0);

    std::printf("Solution 0 (z truncated, modulating box fixed):\n");
    std::printf("%8s %12s %12s %14s %10s\n", "z cap", "delay", "E[z]", "boundary",
                "sweeps");
    const double scale = hap::bench::scale();
    for (std::size_t zcap : {200ul, 700ul, 1500ul}) {
        Solution0Options o;
        o.max_messages = zcap;
        o.tol = 1e-8;
        o.max_sweeps = static_cast<std::size_t>((zcap > 1000 ? 1500 : 3000) * scale);
        const auto s0 = solve_solution0(p, o);
        std::printf("%8zu %12.4f %12.4f %14.2e %10zu%s\n", zcap, s0.mean_delay,
                    s0.mean_messages, s0.truncation_mass, s0.sweeps,
                    s0.converged ? "" : " (cap)");
    }

    std::printf("\nSolution 3 (z exact, modulating box truncated):\n");
    std::printf("%8s %8s %10s %12s %12s %12s\n", "x cap", "y cap", "phases",
                "delay", "E[z]", "rate kept");
    // Measured continuation (heavier runs): {13,80} -> 0.191, {15,90} -> 0.342,
    // converging toward the simulated ~0.5 as the box widens.
    for (const auto& [xc, yc] : {std::pair<std::size_t, std::size_t>{8, 50},
                                 {10, 60},
                                 {12, 70}}) {
        ChainBounds b;
        b.max_users = xc;
        b.max_apps_total = yc;
        const auto s3 = solve_solution3(p, b);
        std::printf("%8zu %8zu %10zu %12.4f %12.4f %11.2f%%\n", xc, yc,
                    s3.phase_states, s3.qbd.mean_delay, s3.qbd.mean_level,
                    100.0 * s3.qbd.mean_rate / 8.25);
    }

    std::printf("\nReading: every widened bound adds delay — the deep-excursion\n"
                "states carry vanishing probability but enormous conditional\n"
                "queues. This is the quantitative face of the paper's warning\n"
                "that HAP congestion 'may persist for minutes': no moderate\n"
                "truncation captures the mean, and finite simulations (Fig. 13)\n"
                "fluctuate for the same reason.\n");
    return 0;
}
