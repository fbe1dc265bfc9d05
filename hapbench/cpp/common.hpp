// hapbench shared vocabulary: run configuration, the span tracer, the
// per-workload records the layer probes consume, and small statistics.
//
// Everything here drives the library outside-in through its public headers;
// nothing reaches into src/ internals.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "experiment/analytic.hpp"
#include "experiment/json.hpp"

namespace hapbench {

using hap::experiment::Json;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

// How big a run is: the measured workload, or the small version the CI
// smoke and a traced run's layer probes use (a few seconds).
enum class Size { Full, Smoke };

struct Config {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;    // timed phase length
    Size size = Size::Full;
    bool traced = false;
    std::string ref_dir;      // correctness references (ref/*.json)
    std::string workdir = ".";  // cache files and other scratch
};

// --- tracing ----------------------------------------------------------------

// A span: name, start, end, the span that caused it, and the request id it
// serves (0 = none). Spans live in per-thread buffers and are written out as
// JSON Lines when the run ends.
struct SpanRec {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

// Process-wide tracer. Recording is decided per operation: an OpSpan with
// traced=false turns off every nested Span on its thread, which is how a
// traced run alternates traced and untraced operations to measure overhead.
class Tracer {
public:
    static Tracer& get();
    void record(const SpanRec& s);
    std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
    std::uint32_t thread_index();

    // All recorded spans (call once the workload threads have joined).
    std::vector<SpanRec> spans() const;
    std::size_t dropped() const { return dropped_.load(); }
    // Durations in microseconds of every span called `name`.
    std::vector<double> durations_us(const std::string& name) const;
    bool write_jsonl(const std::string& path) const;
    // Per-name count, total and self time (duration minus child coverage).
    Json summary() const;

private:
    mutable std::mutex mu_;  // guards buffers_ (each buffer is written by one thread)
    std::deque<std::vector<SpanRec>> buffers_;
    std::atomic<std::uint64_t> ids_{0};
    std::atomic<std::size_t> kept_{0};
    std::atomic<std::size_t> dropped_{0};
};

class Span {
public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

protected:
    Span(const char* name, std::uint64_t req, bool traced);

private:
    SpanRec rec_{};
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_req_ = 0;
    bool saved_active_ = false;
    bool active_ = false;
};

// Root span of one operation (a query, a curve, a replication).
class OpSpan : public Span {
public:
    OpSpan(const char* name, std::uint64_t req, bool traced) : Span(name, req, traced) {}
};

// --- records the layer probes consume ----------------------------------------

struct ServiceRecord {
    bool filled = false;
    std::vector<std::string> requests;  // sampled request bodies
    std::vector<std::string> replies;   // the replies to those requests
    std::string cache_path;             // the daemon's cache file at the end
    std::size_t cache_entries = 0;
    double server_request_us = 0.0;     // mean of hapd.latency.request
    std::uint64_t replies_n = 0;
    std::uint64_t hits = 0;
    std::uint64_t warm = 0;
    std::uint64_t cold = 0;
    std::uint64_t batch_sum = 0;
    std::vector<double> scrape_ms;
    std::vector<double> scrape_bytes;
};

// One analytic point as solved, with the telemetry label it was solved under
// and its exported state (for the build/direct replays on its final box).
struct SolvedPoint {
    hap::core::HapParams params;
    hap::experiment::AnalyticPointResult result;
};

struct SolverRecord {
    bool filled = false;
    std::vector<SolvedPoint> points;
};

struct RepTiming {
    double seconds = 0.0;
    std::uint64_t events = 0;
};

struct SimRecord {
    bool filled = false;
    std::vector<RepTiming> reps;
    double wall_s = 0.0;  // grid runs covering `reps`
    std::size_t threads = 1;
    double draws_per_event = 0.0;
};

// Latencies of a traced run's traced and untraced ops, filed by op class.
// The ops of one class do the same work (one key, one curve, one
// replication), so comparing a class's traced and untraced ops measures
// the tracing and nothing else.
struct OverheadSamples {
    std::map<std::string, std::vector<double>> traced, untraced;

    void add(const std::string& op_class, bool is_traced, double ms) {
        (is_traced ? traced : untraced)[op_class].push_back(ms);
    }
    // Over the first min(traced, untraced) ops of every class that has
    // both: total traced time over total untraced time, minus 1, in percent.
    double overhead_pct() const;
    std::size_t pairs() const;
};

struct Records {
    ServiceRecord service;
    SolverRecord solver;
    SimRecord sim;
    OverheadSamples overhead;
};

// --- one workload run -------------------------------------------------------

struct RunResult {
    std::vector<double> setup_s;  // one sample per set-up
    std::vector<double> op_ms;    // one latency sample per completed op
    double elapsed_s = 0.0;       // timed phase
    // A closed loop of short ops also files each latency under the window of
    // `window_s` it started in; the end-to-end numbers are then medians over
    // the complete windows, so a burst of interference moves one window,
    // not the run.
    double window_s = 0.0;
    std::vector<std::vector<double>> windows;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;     // failed ops plus failed correctness checks
    std::vector<std::string> failures;
    Json detail = Json::object();

    void fail(std::string what) {
        ++failed;
        if (failures.size() < 20) failures.push_back(std::move(what));
    }
};

RunResult run_serve_hot(const Config& cfg, Records& rec);
RunResult run_serve_explore(const Config& cfg, Records& rec);
RunResult run_sweep_analytic(const Config& cfg, Records& rec);
RunResult run_sweep_sim(const Config& cfg, Records& rec);

// Reference writers (--write-ref); return false on I/O failure.
bool write_ref_serve_hot(const Config& cfg);
bool write_ref_sweep_analytic(const Config& cfg);
bool write_ref_sweep_sim(const Config& cfg);

// Per-layer metrics of a traced run, in BENCHMARK.json order. A traced run
// must print every per-layer metric, so the layers the workload does not
// reach are measured on a small probe run of the workload that does; those
// metrics name that workload in `source`. The probes' correctness failures
// count into `out`.
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string source;  // empty: measured on the workload that was run
};
std::vector<Metric> layer_metrics(const Config& cfg, Records& rec, RunResult& out);

// --- helpers ----------------------------------------------------------------

// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);
double mean(const std::vector<double>& v);
bool rel_close(double a, double b, double rel);

// References are flat JSON objects of name -> number under ref_dir.
Json read_ref(const Config& cfg, const std::string& file);
bool write_ref(const Config& cfg, const std::string& file, const Json& doc);

// The hapd settings both service workloads use (bench/hapd_load's solver
// settings: zmax 30, trunc_tol 1e-7, tol 1e-7).
hap::experiment::AnalyticSweepOptions hapd_solver_options();

}  // namespace hapbench
