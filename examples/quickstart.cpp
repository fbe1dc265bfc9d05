// Quickstart: build the paper's baseline HAP, analyze the HAP/M/1 queue with
// every solution, and confirm by simulation.
//
//   $ ./quickstart [service_rate]
//
// Walks through the library's main entry points:
//   1. HapParams          — describe the user/application/message hierarchy.
//   2. Solution2          — closed-form interarrival law + G/M/1 delay.
//   3. Solution1          — chain-based variant of the same reduction.
//   4. solve_solution0    — exact brute-force chain (the paper's reference).
//   5. simulate_hap_queue — event-driven simulation.
#include <cstdio>
#include <cstdlib>

#include "core/hap.hpp"
#include "queueing/mm1.hpp"

int main(int argc, char** argv) {
    using namespace hap::core;

    const double mu = argc > 1 ? std::atof(argv[1]) : 20.0;
    if (mu <= 0.0) {
        std::fprintf(stderr, "usage: %s [service_rate > 0]\n", argv[0]);
        return 1;
    }

    // 1. The paper's Section-4 parameter set: 5 application types, 3 message
    //    types each, lambda-bar = 8.25 messages/s.
    const HapParams params = HapParams::paper_baseline(mu);
    std::printf("HAP baseline: mean users %.2f, mean apps %.2f, lambda-bar %.3f, "
                "rho %.3f\n\n",
                params.mean_users(), params.mean_apps(),
                params.mean_message_rate(), params.offered_load());

    // 2. Closed-form Solution 2.
    const Solution2 s2(params);
    const auto q2 = s2.solve_queue(mu);
    std::printf("Solution 2 (closed form) : sigma %.4f  delay %.4f s\n", q2.sigma,
                q2.mean_delay);

    // 3. Solution 1 (numeric modulating chain).
    const Solution1 s1(params);
    const auto q1 = s1.solve_queue(mu);
    std::printf("Solution 1 (chain)       : sigma %.4f  delay %.4f s  (%zu states)\n",
                q1.sigma, q1.mean_delay, s1.chain_states());

    // 4. Solution 0 (exact brute force, truncated lattice). The baseline's
    //    mean queue is heavy-tailed (congestion mountains), so the measured
    //    delay grows with the queue bound; a small bound keeps the example
    //    fast — see bench/ablation_truncation for the full picture.
    Solution0Options opts0;
    opts0.tol = 1e-7;
    opts0.max_messages = 150;
    opts0.max_sweeps = 1500;
    const auto s0 = solve_solution0(params, opts0);
    std::printf("Solution 0 (z <= 150)    : sigma %.4f  delay %.4f s  "
                "(%zu states, %zu sweeps, boundary mass %.1e)\n",
                s0.sigma, s0.mean_delay, s0.states, s0.sweeps, s0.truncation_mass);

    // 5. Simulation.
    hap::sim::RandomStream rng(2026);
    HapSimOptions sim_opts;
    sim_opts.horizon = 1e6;
    sim_opts.warmup = 2e4;
    const auto sim = simulate_hap_queue(params, rng, sim_opts);
    std::printf("Simulation               : delay %.4f s  (%llu messages, util %.3f)\n",
                sim.delay.mean(), static_cast<unsigned long long>(sim.departures),
                sim.utilization);

    // Baseline comparison: the same load offered as a Poisson stream.
    const hap::queueing::Mm1 mm1(params.mean_message_rate(), mu);
    std::printf("\nM/M/1 at equal load      : delay %.4f s\n", mm1.mean_delay());
    std::printf("HAP/Poisson delay ratio  : %.2fx (sim), %.2fx (truncated Sol 0), "
                "%.2fx (Solution 2)\n",
                sim.delay.mean() / mm1.mean_delay(), s0.mean_delay / mm1.mean_delay(),
                q2.mean_delay / mm1.mean_delay());
    std::printf(
        "\nThe gap is the paper's point: Poisson analysis badly\n"
        "underestimates delay for hierarchically modulated traffic.\n"
        "(This example keeps runs short; with long horizons and wide bounds\n"
        "the exact/simulated delay settles near 0.5 s, ~6x Poisson — see\n"
        "EXPERIMENTS.md and bench/ablation_truncation.)\n");
    return 0;
}
