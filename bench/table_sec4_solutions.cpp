// Section 4 headline table: the baseline parameter set analyzed by every
// solution and by simulation, against the paper's reported values:
//   lambda-bar = 8.25, sigma = 0.50, rho = 0.42,
//   delay 0.55 (Solution 0 & simulation), 0.1 (Solutions 1/2),
//   M/M/1 delay 0.085 => ratios 6.47x and 1.1765x.
//
// The simulation row now runs HAP_BENCH_REPS replications on the experiment
// pool and reports a 95% CI; `--json` / HAP_BENCH_JSON captures every method.
#include <cstdio>

#include "bench_util.hpp"
#include "core/hap.hpp"
#include "queueing/mm1.hpp"

int main(int argc, char** argv) {
    using namespace hap::core;
    using namespace hap::experiment;
    hap::bench::header("Table (Section 4)", "baseline HAP/M/1 by all solutions");
    hap::bench::paper_note(
        "lambda-bar 8.25, sigma 0.50, rho 0.42; delay 0.55 (Sol 0/sim), "
        "0.1 (Sol 1/2), 0.085 (M/M/1)");

    const HapParams p = HapParams::paper_baseline(20.0);
    const double mu = 20.0;
    const hap::queueing::Mm1 mm1(p.mean_message_rate(), mu);

    JsonWriter json("table_sec4_solutions");
    const auto method_point = [&json](const char* label, double rate, double sigma,
                                      double delay, double ratio) {
        Json point = JsonWriter::point(label);
        point.set("lambda_bar", Json::number(rate));
        if (sigma >= 0.0) point.set("sigma", Json::number(sigma));
        point.set("delay", Json::number(delay));
        point.set("vs_mm1", Json::number(ratio));
        json.add_point(std::move(point));
    };

    std::printf("%-24s %12s %10s %18s %12s\n", "method", "lambda-bar", "sigma",
                "delay (s)", "vs M/M/1");

    const Solution2 s2(p);
    const auto q2 = s2.solve_queue(mu);
    std::printf("%-24s %12.3f %10.4f %18.4f %11.2fx\n", "Solution 2 (closed form)",
                s2.mean_rate(), q2.sigma, q2.mean_delay, q2.mean_delay / mm1.mean_delay());
    method_point("solution2", s2.mean_rate(), q2.sigma, q2.mean_delay,
                 q2.mean_delay / mm1.mean_delay());

    const Solution1 s1(p);
    const auto q1 = s1.solve_queue(mu);
    std::printf("%-24s %12.3f %10.4f %18.4f %11.2fx\n", "Solution 1 (chain)",
                s1.mean_rate(), q1.sigma, q1.mean_delay, q1.mean_delay / mm1.mean_delay());
    method_point("solution1", s1.mean_rate(), q1.sigma, q1.mean_delay,
                 q1.mean_delay / mm1.mean_delay());

    Solution0Options o0;
    o0.tol = 1e-8;
    o0.max_messages = 700;
    o0.max_sweeps = static_cast<std::size_t>(3000 * hap::bench::scale());
    const auto s0 = solve_solution0(p, o0);
    std::printf("%-24s %12.3f %10.4f %18.4f %11.2fx  (z<=700, boundary %.1e)\n",
                "Solution 0 (exact)", s0.mean_rate, s0.sigma, s0.mean_delay,
                s0.mean_delay / mm1.mean_delay(), s0.truncation_mass);
    method_point("solution0", s0.mean_rate, s0.sigma, s0.mean_delay,
                 s0.mean_delay / mm1.mean_delay());

    Scenario sc;
    sc.name = "table_sec4.simulation";
    sc.params = p;
    sc.warmup = 5e4;
    sc.horizon = sc.warmup + hap::bench::rep_horizon(2e6, sc.warmup);
    sc.replications = hap::bench::replications();
    const ExperimentRunner runner;
    const MergedResult sim = runner.run(sc);
    std::printf("%-24s %12.3f %10s %18s %11.2fx  (%.2e msgs)\n", "Simulation",
                static_cast<double>(sim.arrivals) / sim.observed_time, "-",
                hap::bench::fmt_ci(sim.delay_mean).c_str(),
                sim.delay_mean.mean / mm1.mean_delay(),
                static_cast<double>(sim.departures));
    {
        Json point = JsonWriter::point("simulation");
        point.set("lambda_bar",
                  Json::number(static_cast<double>(sim.arrivals) / sim.observed_time));
        point.set("vs_mm1", Json::number(sim.delay_mean.mean / mm1.mean_delay()));
        point.set("metrics", metrics_json(sim));
        json.add_point(std::move(point));
    }

    std::printf("%-24s %12.3f %10.4f %18.4f %11.2fx\n", "M/M/1 (Poisson)",
                p.mean_message_rate(), p.offered_load(), mm1.mean_delay(), 1.0);
    method_point("mm1", p.mean_message_rate(), p.offered_load(), mm1.mean_delay(), 1.0);

    std::printf("\nKey reproduction points: Solutions 1/2 agree (<1%%) and sit near\n"
                "0.1 s; Solution 0 and the simulation sit several times higher —\n"
                "the correlation the G/M/1 reduction throws away. Solution 0's\n"
                "sigma (~0.495) hits the paper's 0.50; its mean delay climbs with\n"
                "the z bound (0.30 at z<=700 here, ~0.5 unbounded) because the\n"
                "mean queue is dominated by rare congestion mountains — see\n"
                "bench/ablation_truncation.\n");
    hap::bench::finish_json(json, hap::bench::json_path(argc, argv));
    return 0;
}
