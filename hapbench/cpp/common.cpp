#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>

namespace hapbench {

namespace {

// Spans kept in memory; past the cap they are counted and dropped so a long
// closed loop cannot grow the trace without bound.
constexpr std::size_t kMaxSpans = 400000;

struct ThreadCtx {
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    bool active = false;  // only inside a traced OpSpan
    std::vector<SpanRec>* buffer = nullptr;
    std::uint32_t index = 0;
};
thread_local ThreadCtx t_ctx;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

}  // namespace

Tracer& Tracer::get() {
    static Tracer t;
    return t;
}

std::uint32_t Tracer::thread_index() {
    if (t_ctx.buffer == nullptr) {
        const std::lock_guard<std::mutex> lock(mu_);
        buffers_.emplace_back();
        t_ctx.buffer = &buffers_.back();
        t_ctx.index = static_cast<std::uint32_t>(buffers_.size());
    }
    return t_ctx.index;
}

void Tracer::record(const SpanRec& rec) {
    if (kept_.fetch_add(1) >= kMaxSpans) {
        dropped_.fetch_add(1);
        return;
    }
    (void)thread_index();
    // Each thread appends only to its own buffer; readers run after join.
    t_ctx.buffer->push_back(rec);
}

std::vector<SpanRec> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRec> out;
    for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
    std::sort(out.begin(), out.end(),
              [](const SpanRec& a, const SpanRec& b) { return a.id < b.id; });
    return out;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRec& s : spans())
        if (name == s.name) out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
    std::ofstream f(path, std::ios::trunc);
    if (!f) return false;
    for (const SpanRec& s : spans()) {
        Json j = Json::object();
        j.set("name", Json::string(s.name));
        j.set("id", Json::integer(s.id));
        j.set("parent", Json::integer(s.parent));
        j.set("req", Json::integer(s.req));
        j.set("thread", Json::integer(static_cast<std::uint64_t>(s.thread)));
        j.set("start_ns", Json::integer(static_cast<std::int64_t>(s.start_ns)));
        j.set("end_ns", Json::integer(static_cast<std::int64_t>(s.end_ns)));
        f << j.dump(0) << '\n';
    }
    return static_cast<bool>(f);
}

Json Tracer::summary() const {
    const std::vector<SpanRec> all = spans();
    // Children are nested inside their parent on one thread, so summing their
    // durations is the part of the parent's interval they cover.
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const SpanRec& s : all)
        if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    struct Agg {
        std::uint64_t count = 0;
        double total_ms = 0.0;
        double self_ms = 0.0;
    };
    std::map<std::string, Agg> by_name;
    for (const SpanRec& s : all) {
        Agg& a = by_name[s.name];
        const double dur = 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
        const auto it = child_ns.find(s.id);
        const double kids = it == child_ns.end() ? 0.0 : 1e-6 * static_cast<double>(it->second);
        ++a.count;
        a.total_ms += dur;
        a.self_ms += std::max(0.0, dur - kids);
    }
    Json out = Json::object();
    for (const auto& [name, a] : by_name) {
        Json j = Json::object();
        j.set("count", Json::integer(a.count));
        j.set("total_ms", Json::number(a.total_ms));
        j.set("self_ms", Json::number(a.self_ms));
        out.set(name, std::move(j));
    }
    return out;
}

Span::Span(const char* name) {
    active_ = t_ctx.active;
    saved_parent_ = t_ctx.parent;
    saved_req_ = t_ctx.req;
    saved_active_ = t_ctx.active;
    if (!active_) return;
    rec_.name = name;
    rec_.id = Tracer::get().next_id();
    rec_.parent = t_ctx.parent;
    rec_.req = t_ctx.req;
    rec_.thread = Tracer::get().thread_index();
    t_ctx.parent = rec_.id;
    rec_.start_ns = now_ns();
}

Span::Span(const char* name, std::uint64_t req, bool traced) {
    saved_parent_ = t_ctx.parent;
    saved_req_ = t_ctx.req;
    saved_active_ = t_ctx.active;
    t_ctx.active = traced;
    t_ctx.req = req;
    active_ = traced;
    if (!active_) return;
    rec_.name = name;
    rec_.id = Tracer::get().next_id();
    rec_.parent = saved_parent_;
    rec_.req = req;
    rec_.thread = Tracer::get().thread_index();
    t_ctx.parent = rec_.id;
    rec_.start_ns = now_ns();
}

Span::~Span() {
    if (active_) {
        rec_.end_ns = now_ns();
        Tracer::get().record(rec_);
    }
    t_ctx.parent = saved_parent_;
    t_ctx.req = saved_req_;
    t_ctx.active = saved_active_;
}

double OverheadSamples::overhead_pct() const {
    double t_sum = 0.0, u_sum = 0.0;
    for (const auto& [cls, t] : traced) {
        const auto it = untraced.find(cls);
        if (it == untraced.end()) continue;
        const std::size_t n = std::min(t.size(), it->second.size());
        for (std::size_t i = 0; i < n; ++i) {
            t_sum += t[i];
            u_sum += it->second[i];
        }
    }
    return u_sum > 0.0 ? 100.0 * (t_sum / u_sum - 1.0) : 0.0;
}

std::size_t OverheadSamples::pairs() const {
    std::size_t n = 0;
    for (const auto& [cls, t] : traced) {
        const auto it = untraced.find(cls);
        if (it != untraced.end()) n += std::min(t.size(), it->second.size());
    }
    return n;
}

double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double idx = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(idx);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

bool rel_close(double a, double b, double rel) {
    if (!std::isfinite(a) || !std::isfinite(b)) return false;
    return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

Json read_ref(const Config& cfg, const std::string& file) {
    std::ifstream f(cfg.ref_dir + "/" + file);
    if (!f) return Json::object();
    const std::string text((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    return Json::parse(text);
}

bool write_ref(const Config& cfg, const std::string& file, const Json& doc) {
    return hap::experiment::write_json_file(cfg.ref_dir + "/" + file, doc);
}

hap::experiment::AnalyticSweepOptions hapd_solver_options() {
    // Mirrors what the daemon hands run_analytic_sweep for ServeOptions
    // {tol 1e-7, trunc_tol 1e-7, zmax 30}: warm, adaptive, fallback on.
    hap::experiment::AnalyticSweepOptions o;
    o.warm_start = true;
    o.adaptive = true;
    o.fallback = true;
    o.export_states = true;
    o.solver.tol = 1e-7;
    o.solver.trunc_tol = 1e-7;
    o.solver.max_sweeps = 8000;
    o.solver.max_messages = 30;
    o.solver.check_every = 10;
    return o;
}

}  // namespace hapbench
