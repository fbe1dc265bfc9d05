#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <tuple>

namespace hap::obs {

namespace {

bool env_enabled() {
    const char* v = std::getenv("HAP_BENCH_METRICS");  // haplint: allow(env-after-spawn) phase-0: seeds the one-time flag before any pool exists
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> flag{env_enabled()};
    return flag;
}

thread_local std::string t_scope_label;

}  // namespace

bool enabled() noexcept { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
    enabled_flag().store(on, std::memory_order_relaxed);
}

void HistogramData::observe(double value) {
    ++count;
    sum += value;
    if (count == 1) {
        min = value;
        max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    int idx = 0;
    if (value > 0.0 && std::isfinite(value)) {
        // ilogb(v) = e with 2^e <= v < 2^(e+1), so v lies in bucket
        // e - kMinExponent — except exactly v = 2^e, which is the inclusive
        // upper edge of the bucket below.
        const int e = std::ilogb(value);
        const bool on_edge = std::ldexp(1.0, e) == value;  // haplint: allow(float-equality) detects exact powers of two for the bucket edge
        idx = std::clamp(e - kMinExponent - (on_edge ? 1 : 0), 0, kBuckets - 1);
    } else if (std::isinf(value) && value > 0.0) {
        idx = kBuckets - 1;
    }
    ++buckets[static_cast<std::size_t>(idx)];
}

void HistogramData::merge(const HistogramData& other) {
    if (other.count == 0) return;
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
    for (int i = 0; i < kBuckets; ++i)
        buckets[static_cast<std::size_t>(i)] += other.buckets[static_cast<std::size_t>(i)];
}

double HistogramData::bucket_upper(int i) {
    return std::ldexp(1.0, i + kMinExponent + 1);
}

std::uint64_t MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
    if (!enabled()) return 0;
    const core::MutexLock lock(mutex_);
    auto it = counters_.find(name);
    if (it == counters_.end())
        it = counters_.emplace(std::string(name), 0).first;
    it->second += delta;
    return it->second;
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
    if (!enabled()) return;
    const core::MutexLock lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), 0.0).first;
    it->second = value;
}

void MetricsRegistry::set_gauge_max(std::string_view name, double value) {
    if (!enabled()) return;
    const core::MutexLock lock(mutex_);
    auto it = gauges_.find(name);
    if (it == gauges_.end())
        it = gauges_.emplace(std::string(name), value).first;
    else if (value > it->second)
        it->second = value;
}

void MetricsRegistry::observe(std::string_view name, double value) {
    if (!enabled()) return;
    const core::MutexLock lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end())
        it = histograms_.emplace(std::string(name), HistogramData{}).first;
    it->second.observe(value);
}

void MetricsRegistry::record_solver(SolverTelemetry record) {
    if (!enabled()) return;
    if (record.label.empty()) record.label = ScopedLabel::current();
    const core::MutexLock lock(mutex_);
    solvers_.push_back(std::move(record));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot snap;
    {
        const core::MutexLock lock(mutex_);
        snap.counters.assign(counters_.begin(), counters_.end());
        snap.gauges.assign(gauges_.begin(), gauges_.end());
        snap.histograms.assign(histograms_.begin(), histograms_.end());
        snap.solvers = solvers_;
    }
    // Worker threads append telemetry in scheduling order; sort to a canonical
    // order so serialized output is independent of the thread count.
    std::stable_sort(snap.solvers.begin(), snap.solvers.end(),
                     [](const SolverTelemetry& a, const SolverTelemetry& b) {
                         return std::tie(a.label, a.solver, a.run_id) <
                                std::tie(b.label, b.solver, b.run_id);
                     });
    return snap;
}

void MetricsRegistry::reset() {
    const core::MutexLock lock(mutex_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    solvers_.clear();
}

MetricsRegistry& registry() {
    static MetricsRegistry instance;
    return instance;
}

ScopedLabel::ScopedLabel(std::string label) : prev_(std::move(t_scope_label)) {
    t_scope_label = std::move(label);
}

ScopedLabel::~ScopedLabel() { t_scope_label = std::move(prev_); }

const std::string& ScopedLabel::current() noexcept { return t_scope_label; }

}  // namespace hap::obs
