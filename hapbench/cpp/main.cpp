// hapbench — one end-to-end, layer-by-layer benchmark for hapd queries and
// the figure sweeps.
//
//   hapbench --workload W [--seed N] [--seconds S] [--json OUT]
//            [--trace FILE] [--smoke] [--ref DIR] [--workdir DIR]
//   hapbench --workload W --write-ref [--ref DIR]
//
// One workload per process, so peak_rss_mb belongs to that workload. An
// untraced run prints the end-to-end metrics; a traced run (--trace) prints
// the per-layer metrics and writes its spans to FILE as JSON Lines. Every
// metric prints as `metric <name> <value> <unit>`; OUT receives the same
// numbers as a hap.bench.result/v1 document with the machine stamp. The exit
// status is non-zero when any op or correctness check failed.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "experiment/json_writer.hpp"

#ifndef HAPBENCH_REF_DIR
#define HAPBENCH_REF_DIR "ref"
#endif
#ifndef HAPBENCH_BUILD_TYPE
#define HAPBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using hapbench::Config;
using hapbench::Json;
using hapbench::Metric;

std::string cpu_model() {
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string fs_type(const std::string& dir) {
    struct statfs st {};
    if (::statfs(dir.c_str(), &st) != 0) return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
        case 0xEF53: return "ext4";
        case 0x01021994: return "tmpfs";
        case 0x58465342: return "xfs";
        case 0x9123683E: return "btrfs";
        case 0x794C7630: return "overlayfs";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
            return buf;
        }
    }
}

Json machine(const Config& cfg) {
    Json m = Json::object();
    m.set("cpu", Json::string(cpu_model()));
    m.set("nproc", Json::integer(static_cast<std::uint64_t>(std::thread::hardware_concurrency())));
    m.set("compiler", Json::string(__VERSION__));
    m.set("build_type", Json::string(HAPBENCH_BUILD_TYPE));
    m.set("cache_fs", Json::string(fs_type(cfg.workdir)));
    const char* commit = std::getenv("HAPBENCH_COMMIT");
    m.set("commit", Json::string(commit != nullptr && commit[0] != '\0' ? commit : "unknown"));
    return m;
}

double peak_rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(hapbench::RunResult& r) {
    using hapbench::quantile;
    double throughput = r.elapsed_s > 0.0 ? static_cast<double>(r.op_ms.size()) / r.elapsed_s : 0.0;
    double p50 = quantile(r.op_ms, 0.5), p80 = quantile(r.op_ms, 0.8);
    if (!r.windows.empty()) {
        std::vector<double> rates, p50s, p80s;
        for (std::vector<double>& w : r.windows) {
            rates.push_back(static_cast<double>(w.size()) / r.window_s);
            p50s.push_back(quantile(w, 0.5));
            p80s.push_back(quantile(w, 0.8));
        }
        throughput = quantile(rates, 0.5);
        p50 = quantile(p50s, 0.5);
        p80 = quantile(p80s, 0.5);
    }
    std::vector<Metric> m;
    m.push_back({"setup_s", quantile(r.setup_s, 0.5), "s", ""});
    m.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
    m.push_back({"throughput", throughput, "ops/s", ""});
    m.push_back({"latency_p50_ms", p50, "ms", ""});
    m.push_back({"latency_p80_ms", p80, "ms", ""});
    return m;
}

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "hapbench: %s\nusage: hapbench --workload "
                 "serve_hot|serve_explore|sweep_analytic|sweep_sim [--seed N] [--seconds S] "
                 "[--json OUT] [--trace FILE] [--smoke] [--ref DIR] [--workdir DIR] "
                 "[--write-ref]\n",
                 why.c_str());
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    Config cfg;
    cfg.ref_dir = HAPBENCH_REF_DIR;
    std::string json_path, trace_path;
    bool write_refs = false, seconds_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload") cfg.workload = value();
        else if (a == "--seed") cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds") { cfg.seconds = std::atof(value().c_str()); seconds_given = true; }
        else if (a == "--json") json_path = value();
        else if (a == "--trace") trace_path = value();
        else if (a == "--ref") cfg.ref_dir = value();
        else if (a == "--workdir") cfg.workdir = value();
        else if (a == "--smoke") cfg.size = hapbench::Size::Smoke;
        else if (a == "--write-ref") write_refs = true;
        else usage("unknown argument " + a);
    }
    if (cfg.size == hapbench::Size::Smoke && !seconds_given) cfg.seconds = 1.0;
    if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
    cfg.traced = !trace_path.empty();

    using RunFn = hapbench::RunResult (*)(const Config&, hapbench::Records&);
    using RefFn = bool (*)(const Config&);
    RunFn run = nullptr;
    RefFn ref = nullptr;
    if (cfg.workload == "serve_hot") { run = hapbench::run_serve_hot; ref = hapbench::write_ref_serve_hot; }
    else if (cfg.workload == "serve_explore") { run = hapbench::run_serve_explore; }
    else if (cfg.workload == "sweep_analytic") { run = hapbench::run_sweep_analytic; ref = hapbench::write_ref_sweep_analytic; }
    else if (cfg.workload == "sweep_sim") { run = hapbench::run_sweep_sim; ref = hapbench::write_ref_sweep_sim; }
    else usage("unknown workload '" + cfg.workload + "'");

    try {
        if (write_refs) {
            // serve_explore checks against in-process cold re-solves instead.
            if (ref == nullptr) return 0;
            const bool ok = ref(cfg);
            std::printf("reference for %s %s\n", cfg.workload.c_str(), ok ? "written" : "FAILED");
            return ok ? 0 : 1;
        }

        hapbench::Records rec;
        hapbench::RunResult r = run(cfg, rec);
        const std::vector<Metric> metrics =
            cfg.traced ? hapbench::layer_metrics(cfg, rec, r) : end_to_end(r);
        // A failed check with no op of its own still counts as an attempt.
        r.attempted = std::max(r.attempted, r.failed);

        for (const Metric& m : metrics)
            std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
        std::printf("ops %llu ops_failed %llu\n", static_cast<unsigned long long>(r.attempted),
                    static_cast<unsigned long long>(r.failed));
        for (const std::string& f : r.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());

        hap::experiment::JsonWriter doc("hapbench");
        doc.meta("workload", Json::string(cfg.workload));
        doc.meta("seed", Json::integer(cfg.seed));
        doc.meta("seconds", Json::number(cfg.seconds));
        doc.meta("smoke", Json::boolean(cfg.size == hapbench::Size::Smoke));
        doc.meta("traced", Json::boolean(cfg.traced));
        doc.meta("machine", machine(cfg));
        doc.meta("ops", Json::integer(r.attempted));
        doc.meta("ops_failed", Json::integer(r.failed));
        doc.meta("op_samples", Json::integer(static_cast<std::uint64_t>(r.op_ms.size())));
        doc.meta("setup_samples", Json::integer(static_cast<std::uint64_t>(r.setup_s.size())));
        doc.meta("windows", Json::integer(static_cast<std::uint64_t>(r.windows.size())));
        if (r.op_ms.size() <= 1000) {
            Json samples = Json::array();
            for (const double ms : r.op_ms) samples.add(Json::number(ms));
            doc.meta("op_ms", std::move(samples));
        }
        Json failures = Json::array();
        for (const std::string& f : r.failures) failures.add(Json::string(f));
        doc.meta("failures", std::move(failures));
        doc.meta("detail", r.detail);
        if (cfg.traced) {
            doc.meta("trace", hapbench::Tracer::get().summary());
            if (!hapbench::Tracer::get().write_jsonl(trace_path))
                throw std::runtime_error("cannot write trace " + trace_path);
        }
        for (const Metric& m : metrics) {
            Json p = hap::experiment::JsonWriter::point(m.name);
            p.set("value", Json::number(m.value));
            p.set("unit", Json::string(m.unit));
            if (!m.source.empty()) p.set("source", Json::string(m.source));
            doc.add_point(std::move(p));
        }
        if (!json_path.empty() && !doc.write_file(json_path))
            throw std::runtime_error("cannot write " + json_path);
        return r.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hapbench: %s\n", e.what());
        return 2;
    }
}
