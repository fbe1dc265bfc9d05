// Section 4.1: accuracy and cost of the solutions.
//   * runtimes (paper: 2 weeks / 7 hours / 5-7 minutes on a SUN-4/280);
//   * approximation error of Solutions 1/2 versus the exact answer as the
//     paper's validity conditions (rate separation, small state gaps, light
//     load) are satisfied or violated.
// The exact reference here is Solution 3 (matrix-geometric), which agrees
// with Solution 0 but is cheaper on the small lattices of this sweep.
//
// The accuracy sweep's independent solves fan across the experiment pool;
// `--json` / HAP_BENCH_JSON captures runtimes and errors.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "core/hap.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     t0).count();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace hap::core;
    using namespace hap::experiment;
    hap::bench::header("Table (Section 4.1)", "solution accuracy and runtimes");
    hap::bench::paper_note(
        "errors < 5% when level rates are ~5x separated and sigma < 30%; "
        "approximations drift beyond 30% utilization. Runtimes 2 weeks / "
        "7 h / 5-7 min on a SUN-4/280");

    JsonWriter json("table_sec41_accuracy");

    // --- runtimes on the paper baseline -------------------------------------
    const HapParams base = HapParams::paper_baseline(20.0);
    {
        auto t0 = std::chrono::steady_clock::now();
        Solution0Options o;
        o.tol = 1e-8;
        o.max_messages = 700;
        o.max_sweeps = 3000;
        const auto s0 = solve_solution0(base, o);
        const double t_s0 = ms_since(t0);
        t0 = std::chrono::steady_clock::now();
        const Solution1 s1(base);
        const auto q1 = s1.solve_queue(20.0);
        const double t_s1 = ms_since(t0);
        t0 = std::chrono::steady_clock::now();
        const Solution2 s2(base);
        const auto q2 = s2.solve_queue(20.0);
        const double t_s2 = ms_since(t0);
        std::printf("runtime on the baseline (paper -> here):\n");
        std::printf("  Solution 0: 2 weeks -> %8.0f ms   (delay %.4f)\n", t_s0,
                    s0.mean_delay);
        std::printf("  Solution 1: 7 hours -> %8.0f ms   (delay %.4f)\n", t_s1,
                    q1.mean_delay);
        std::printf("  Solution 2: 5-7 min -> %8.1f ms   (delay %.4f)\n\n", t_s2,
                    q2.mean_delay);

        Json runtimes = JsonWriter::point("runtimes");
        runtimes.set("solution0_ms", Json::number(t_s0));
        runtimes.set("solution1_ms", Json::number(t_s1));
        runtimes.set("solution2_ms", Json::number(t_s2));
        runtimes.set("solution0_delay", Json::number(s0.mean_delay));
        runtimes.set("solution1_delay", Json::number(q1.mean_delay));
        runtimes.set("solution2_delay", Json::number(q2.mean_delay));
        json.add_point(std::move(runtimes));
    }

    // --- accuracy sweep ------------------------------------------------------
    // Family: a = 2 users, b = 1 app/user, Lambda = 2 msg/s per app
    // (lambda-bar = 4); vary the service rate (load) and the separation of
    // level time scales. The rows are independent solves: fan them across
    // the pool.
    std::printf("approximation error of Solution 2 vs exact (Solution 3):\n");
    std::printf("%-34s %8s %8s %10s %10s %8s\n", "configuration", "rho", "sigma*",
                "exact T", "approx T", "err");
    const struct {
        const char* label;
        double user_ts, app_ts;  // time-scale multipliers (1 = message-level)
        double mu;
    } rows[] = {
        {"well separated, light load", 0.01, 0.1, 16.0},
        {"well separated, moderate load", 0.01, 0.1, 8.0},
        {"well separated, heavy load", 0.01, 0.1, 5.3},
        {"collapsed time scales, light", 0.5, 0.7, 16.0},
        {"collapsed time scales, heavy", 0.5, 0.7, 5.3},
    };
    constexpr std::size_t kRows = sizeof(rows) / sizeof(rows[0]);
    struct RowResult {
        HapParams params;
        double exact_delay = 0.0, approx_delay = 0.0, sigma = 0.0;
    } solved[kRows];

    const ExperimentRunner runner;
    runner.parallel_for(kRows, [&](std::size_t i) {
        const auto& r = rows[i];
        solved[i].params = HapParams::homogeneous(
            0.4 * r.user_ts, 0.2 * r.user_ts, 0.5 * r.app_ts, 0.5 * r.app_ts, 1,
            2.0, 1, r.mu);
        const auto exact = solve_solution3(solved[i].params);
        const Solution2 s2(solved[i].params);
        const auto approx = s2.solve_queue(r.mu);
        solved[i].exact_delay = exact.qbd.mean_delay;
        solved[i].approx_delay = approx.mean_delay;
        solved[i].sigma = approx.sigma;
    });

    for (std::size_t i = 0; i < kRows; ++i) {
        const auto& s = solved[i];
        const double err = (s.exact_delay - s.approx_delay) / s.exact_delay;
        std::printf("%-34s %8.3f %8.3f %10.4f %10.4f %7.1f%%\n", rows[i].label,
                    s.params.offered_load(), s.sigma, s.exact_delay, s.approx_delay,
                    100.0 * err);
        Json point = JsonWriter::point(rows[i].label);
        point.set("rho", Json::number(s.params.offered_load()));
        point.set("sigma", Json::number(s.sigma));
        point.set("exact_delay", Json::number(s.exact_delay));
        point.set("approx_delay", Json::number(s.approx_delay));
        point.set("relative_error", Json::number(err));
        json.add_point(std::move(point));
    }
    std::printf("\nShape check: errors are small only with separated time scales\n"
                "AND light load, exactly the paper's three validity conditions;\n"
                "under load the approximations undershoot badly (correlation loss).\n");
    hap::bench::finish_json(json, hap::bench::json_path(argc, argv));
    return 0;
}
