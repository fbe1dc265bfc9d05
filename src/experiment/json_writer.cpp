#include "experiment/json_writer.hpp"

#include <utility>

#include "experiment/atomic_file.hpp"

namespace hap::experiment {

Json to_json(const Estimate& e) {
    Json j = Json::object();
    j.set("mean", Json::number(e.mean));
    j.set("ci95", Json::number(e.half_width));
    j.set("lo", Json::number(e.lo()));
    j.set("hi", Json::number(e.hi()));
    j.set("replications", Json::integer(e.replications));
    return j;
}

Json metrics_json(const MergedResult& m) {
    Json metrics = Json::object();
    metrics.set("delay", to_json(m.delay_mean));
    metrics.set("number", to_json(m.number_mean));
    metrics.set("utilization", to_json(m.utilization));
    metrics.set("throughput", to_json(m.throughput));
    metrics.set("loss_fraction", to_json(m.loss_fraction));

    Json pooled = Json::object();
    pooled.set("delay_mean", Json::number(m.delay.mean()));
    pooled.set("delay_max", Json::number(m.delay.max()));
    pooled.set("number_mean", Json::number(m.number.mean()));
    pooled.set("number_max", Json::number(m.number.max()));
    pooled.set("utilization", Json::number(m.busy.busy_fraction()));
    pooled.set("busy_periods", Json::integer(m.busy.mountains()));
    pooled.set("busy_len_mean", Json::number(m.busy.busy_lengths().mean()));
    pooled.set("busy_len_var", Json::number(m.busy.busy_lengths().variance()));
    pooled.set("idle_len_mean", Json::number(m.busy.idle_lengths().mean()));
    pooled.set("idle_len_var", Json::number(m.busy.idle_lengths().variance()));
    pooled.set("height_mean", Json::number(m.busy.heights().mean()));
    pooled.set("height_var", Json::number(m.busy.heights().variance()));
    pooled.set("arrivals", Json::integer(m.arrivals));
    pooled.set("departures", Json::integer(m.departures));
    pooled.set("losses", Json::integer(m.losses));
    pooled.set("observed_time", Json::number(m.observed_time));
    metrics.set("pooled", std::move(pooled));
    return metrics;
}

Json obs_metrics_json(const obs::MetricsSnapshot& snap) {
    Json block = Json::object();
    block.set("schema", Json::string("hap.obs.metrics/v1"));

    Json counters = Json::object();
    for (const auto& [name, value] : snap.counters)
        counters.set(name, Json::integer(value));
    block.set("counters", std::move(counters));

    Json gauges = Json::object();
    for (const auto& [name, value] : snap.gauges) gauges.set(name, Json::number(value));
    block.set("gauges", std::move(gauges));

    Json histograms = Json::object();
    for (const auto& [name, h] : snap.histograms) {
        Json hj = Json::object();
        hj.set("count", Json::integer(h.count));
        hj.set("sum", Json::number(h.sum));
        hj.set("mean", Json::number(h.mean()));
        hj.set("min", Json::number(h.count > 0 ? h.min : 0.0));
        hj.set("max", Json::number(h.count > 0 ? h.max : 0.0));
        // Sparse bucket encoding: only non-empty log2 buckets, as
        // {"le": <inclusive upper edge>, "n": <count>}.
        Json buckets = Json::array();
        for (int i = 0; i < obs::HistogramData::kBuckets; ++i) {
            const std::uint64_t n = h.buckets[static_cast<std::size_t>(i)];
            if (n == 0) continue;
            Json b = Json::object();
            b.set("le", Json::number(obs::HistogramData::bucket_upper(i)));
            b.set("n", Json::integer(n));
            buckets.add(std::move(b));
        }
        hj.set("buckets", std::move(buckets));
        histograms.set(name, std::move(hj));
    }
    block.set("histograms", std::move(histograms));

    Json solvers = Json::array();
    for (const obs::SolverTelemetry& t : snap.solvers) {
        Json tj = Json::object();
        tj.set("solver", Json::string(t.solver));
        tj.set("label", Json::string(t.label));
        tj.set("run", Json::integer(t.run_id));
        tj.set("iterations", Json::integer(t.iterations));
        tj.set("residual", Json::number(t.residual));
        tj.set("truncation", Json::integer(t.truncation));
        tj.set("wall_s", Json::number(t.wall_time_s));
        tj.set("converged", Json::boolean(t.converged));
        // Sweep-kernel throughput; emitted only when the solver reported
        // it, so records of solvers without a sweep loop stay unchanged.
        if (t.sweep_time_s > 0.0) tj.set("sweep_s", Json::number(t.sweep_time_s));
        if (t.states_per_sec > 0.0)
            tj.set("states_per_sec", Json::number(t.states_per_sec));
        solvers.add(std::move(tj));
    }
    block.set("solvers", std::move(solvers));
    return block;
}

JsonWriter::JsonWriter(std::string bench_id) : bench_id_(std::move(bench_id)) {}

JsonWriter& JsonWriter::meta(const std::string& key, Json value) {
    for (auto& [k, v] : meta_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    meta_.emplace_back(key, std::move(value));
    return *this;
}

Json JsonWriter::point(const std::string& label) {
    Json p = Json::object();
    p.set("label", Json::string(label));
    return p;
}

JsonWriter& JsonWriter::add_point(Json point) {
    points_.push_back(std::move(point));
    return *this;
}

JsonWriter& JsonWriter::metrics_block(Json metrics) {
    metrics_.clear();
    metrics_.push_back(std::move(metrics));
    return *this;
}

JsonWriter& JsonWriter::failures_block(Json failures) {
    failures_.clear();
    failures_.push_back(std::move(failures));
    return *this;
}

std::string JsonWriter::dump() const {
    Json doc = Json::object();
    doc.set("schema", Json::string("hap.bench.result/v1"));
    doc.set("bench", Json::string(bench_id_));
    for (const auto& [k, v] : meta_) doc.set(k, v);
    Json points = Json::array();
    for (const Json& p : points_) points.add(p);
    doc.set("points", std::move(points));
    if (!failures_.empty()) doc.set("failures", failures_.front());
    if (!metrics_.empty()) doc.set("metrics", metrics_.front());
    return doc.dump(2) + "\n";
}

bool JsonWriter::write_file(const std::string& path) const {
    return atomic_write_file(path, dump());
}

}  // namespace hap::experiment
