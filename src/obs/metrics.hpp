// Process-wide metrics registry: counters, gauges, histograms, and solver
// telemetry records (see telemetry.hpp).
//
// Design rules (DESIGN.md §4e):
//   * Zero dependencies, one mutex. Metric updates are rare (per-solve /
//     per-replication, never per-event), so a single lock is cheaper and
//     simpler than sharded atomics. The busiest caller is hapd, at ~5
//     updates per request (two latency timers, three counters on a hit).
//   * Near-zero cost when disabled: every mutating entry point first checks
//     the relaxed atomic enabled() flag and returns without touching the lock
//     or the clock. Call sites additionally guard so they do not even build
//     the record.
//   * Deterministic output: names live in std::map (sorted iteration), and
//     snapshot() orders telemetry records by (label, solver, run_id), so the
//     serialized block is independent of thread scheduling.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/thread_safety.hpp"
#include "obs/telemetry.hpp"

namespace hap::obs {

// Global on/off switch. Seeded once from the HAP_BENCH_METRICS environment
// variable ("" / "0" / unset = off); flippable at runtime by tools/tests.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

// Fixed log2-bucketed histogram: bucket i collects values in
// (2^(i-31), 2^(i-30)], spanning ~1 ns .. ~512 s when values are seconds.
// Values <= 2^-31 (including 0) land in bucket 0; values beyond the top
// bound land in the last bucket.
struct HistogramData {
    static constexpr int kBuckets = 40;
    static constexpr int kMinExponent = -31;  // lower edge of bucket 0 is 2^-31

    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // valid only when count > 0
    double max = 0.0;  // valid only when count > 0
    std::array<std::uint64_t, kBuckets> buckets{};

    void observe(double value);
    void merge(const HistogramData& other);
    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    // Inclusive upper edge of bucket i (2^(i + kMinExponent + 1)).
    static double bucket_upper(int i);
};

// Deterministic, lock-free-to-read copy of the registry state.
struct MetricsSnapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramData>> histograms;
    std::vector<SolverTelemetry> solvers;  // sorted by (label, solver, run_id)
};

class MetricsRegistry {
public:
    // All mutators no-op (without locking) while enabled() is false.
    std::uint64_t add_counter(std::string_view name, std::uint64_t delta = 1);
    void set_gauge(std::string_view name, double value);
    // High-water gauge: keeps the maximum of every reported value (creates
    // the gauge at `value` on first report). The overload depth gauges use
    // this so a scrape shows the worst queue depth seen, not the last.
    void set_gauge_max(std::string_view name, double value);
    void observe(std::string_view name, double value);  // histogram sample
    void record_solver(SolverTelemetry record);         // fills empty label from scope

    MetricsSnapshot snapshot() const;
    void reset();

private:
    mutable core::Mutex mutex_;
    std::map<std::string, std::uint64_t, std::less<>> counters_ HAP_GUARDED_BY(mutex_);
    std::map<std::string, double, std::less<>> gauges_ HAP_GUARDED_BY(mutex_);
    std::map<std::string, HistogramData, std::less<>> histograms_ HAP_GUARDED_BY(mutex_);
    std::vector<SolverTelemetry> solvers_ HAP_GUARDED_BY(mutex_);
};

// The process-wide registry all instrumentation reports into.
MetricsRegistry& registry();

// Thread-local label scope: while alive, solver records with an empty label
// inherit this label (used by hapctl to tag per-sweep-point solves). Scopes
// nest; destruction restores the previous label.
class ScopedLabel {
public:
    explicit ScopedLabel(std::string label);
    ~ScopedLabel();
    ScopedLabel(const ScopedLabel&) = delete;
    ScopedLabel& operator=(const ScopedLabel&) = delete;

    static const std::string& current() noexcept;

private:
    std::string prev_;
};

}  // namespace hap::obs
