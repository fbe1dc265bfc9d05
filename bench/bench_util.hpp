// Shared helpers for the reproduction benches: run-length / parallelism knobs
// and a tiny line-printing vocabulary so every bench reads the same way.
//
// Every bench accepts:
//   HAP_BENCH_SCALE    (default 1)  multiplies simulation horizons, so
//                      `HAP_BENCH_SCALE=10 ./fig18_busy_idle` approaches the
//                      paper's multi-day runs while the default stays
//                      laptop-friendly;
//   HAP_BENCH_THREADS  (default: the CPUs of the process's affinity mask)
//                      sizes the replication pool — point estimates are
//                      bit-identical at any value;
//   HAP_BENCH_REPS     (default 8) independent replications per grid point,
//                      from which the 95% confidence intervals are computed;
//   --json PATH / HAP_BENCH_JSON=PATH  write machine-readable results in the
//                      "hap.bench.result/v1" schema (see experiment/json_writer.hpp).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "experiment/experiment.hpp"
#include "obs/metrics.hpp"
#include "parallel/parallel_for.hpp"

namespace hap::bench {

inline double scale() {
    static const double s = [] {
        const char* env = std::getenv("HAP_BENCH_SCALE");
        if (!env) return 1.0;
        const double v = std::atof(env);
        return v > 0.0 ? v : 1.0;
    }();
    return s;
}

inline std::size_t threads() { return hap::parallel::env_threads(); }

inline std::size_t replications() {
    static const std::size_t r = [] {
        const char* env = std::getenv("HAP_BENCH_REPS");
        if (!env) return std::size_t{8};
        const long v = std::atol(env);
        return v > 0 ? static_cast<std::size_t>(v) : std::size_t{8};
    }();
    return r;
}

// Per-replication horizon: the bench's historical single-run horizon (times
// HAP_BENCH_SCALE) split across the replications, floored so each replication
// still dwarfs its warmup.
inline double rep_horizon(double base_horizon, double warmup) {
    const double h = base_horizon * scale() / static_cast<double>(replications());
    return std::max(h, 4.0 * warmup);
}

// JSON output path: `--json PATH` beats HAP_BENCH_JSON; empty means "off".
inline std::string json_path(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json") return argv[i + 1];
    const char* env = std::getenv("HAP_BENCH_JSON");
    return env ? env : "";
}

// Attach the standard run metadata and write the document if a path was
// requested (printing where it went). When HAP_BENCH_METRICS is set, the
// collected observability registry is appended as the document-level
// "metrics" block; when it is not, the document is byte-identical to one
// written without instrumentation.
inline void finish_json(hap::experiment::JsonWriter& writer, const std::string& path) {
    if (path.empty()) return;
    writer.meta("scale", hap::experiment::Json::number(scale()));
    writer.meta("threads", hap::experiment::Json::integer(
                               static_cast<std::uint64_t>(threads())));
    writer.meta("replications", hap::experiment::Json::integer(
                                    static_cast<std::uint64_t>(replications())));
    if (hap::obs::enabled()) {
        writer.metrics_block(
            hap::experiment::obs_metrics_json(hap::obs::registry().snapshot()));
    }
    if (writer.write_file(path))
        std::printf("\njson results written to %s\n", path.c_str());
    else
        std::fprintf(stderr, "\nfailed to write json results to %s\n", path.c_str());
}

inline void header(const char* id, const char* what) {
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, what);
    std::printf("(HAP_BENCH_SCALE=%g, HAP_BENCH_REPS=%zu, HAP_BENCH_THREADS=%zu;\n"
                " estimates are mean +/- 95%% CI over the replications)\n",
                scale(), replications(), threads());
    std::printf("==============================================================\n");
}

inline void paper_note(const char* note) { std::printf("paper: %s\n\n", note); }

// "0.5513+-0.0121"-style cell for the printed tables.
inline std::string fmt_ci(const hap::experiment::Estimate& e, const char* fmt = "%.4f") {
    char mean[48], hw[48];
    std::snprintf(mean, sizeof(mean), fmt, e.mean);
    std::snprintf(hw, sizeof(hw), fmt, e.half_width);
    return std::string(mean) + "+-" + hw;
}

}  // namespace hap::bench
