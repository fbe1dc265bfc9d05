// Per-layer metrics of a traced run. Each number comes from one of:
//   * spans the benchmark recorded around its calls into a layer;
//   * the workload's own results and the obs registry it filled;
//   * a replay of the workload's recorded inputs through one layer's public
//     functions (parse_request, solve_key, PointCache, LumpedChain, ...).
// A workload that never reaches a layer gets that layer's numbers from a
// small probe run of the workload that does, so every traced run reports
// the whole table; those numbers carry the probed workload as their source.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common.hpp"
#include "core/hap_chain.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "sim/rng.hpp"
#include "stats/online_stats.hpp"

namespace hapbench {

namespace {

namespace svc = hap::service;

// Time `fn` over at least `min_calls` calls (whole passes over n inputs) and
// return the mean microseconds per call.
template <typename Fn>
double per_call_us(std::size_t n, std::size_t min_calls, Fn&& fn) {
    if (n == 0) return 0.0;
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    while (calls < min_calls) {
        for (std::size_t i = 0; i < n; ++i) fn(i);
        calls += n;
    }
    return 1e6 * seconds_since(t0) / static_cast<double>(calls);
}

void add(std::vector<Metric>& m, const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit, ""});
}

double p50(std::vector<double> v) { return quantile(v, 0.5); }

void service_layers(const Config& cfg, const ServiceRecord& s, const SolverRecord& solver,
                    std::vector<Metric>& m, Json& detail) {
    const Tracer& tr = Tracer::get();
    add(m, "service.call_us", p50(tr.durations_us("service.call")), "us");
    add(m, "service.connect_us", p50(tr.durations_us("service.connect")), "us");
    add(m, "service.server_request_us", s.server_request_us, "us");

    OpSpan op("layers.service", 0, true);
    std::vector<svc::Request> reqs;
    for (const std::string& body : s.requests) reqs.push_back(svc::parse_request(body));
    std::vector<Json> replies;
    for (const std::string& body : s.replies) replies.push_back(Json::parse(body));

    std::size_t sink = 0;
    {
        Span sp("layer.parse");
        add(m, "service.parse_us", per_call_us(s.requests.size(), 20000, [&](std::size_t i) {
                sink += svc::parse_request(s.requests[i]).id.size();
            }), "us");
    }
    const auto key_of = [](const svc::Request& r) {
        return r.op == svc::Op::Admission ? svc::admission_key(r.model, r.delay_budget)
                                          : svc::solve_key(r.model);
    };
    {
        Span sp("layer.key");
        add(m, "service.key_us", per_call_us(reqs.size(), 20000, [&](std::size_t i) {
                sink += key_of(reqs[i]).size();
            }), "us");
    }
    // The daemon answers ok_response(id, payload) framed by encode_frame;
    // rebuild each recorded reply that way and confirm the bytes match.
    std::vector<std::pair<std::string, Json>> payloads;
    for (const Json& r : replies) {
        Json payload = Json::object();
        for (const auto& [k, v] : r.members())
            if (k != "ok" && k != "id") payload.set(k, v);
        payloads.emplace_back(r.at("id").as_string(), std::move(payload));
    }
    bool identical = true;
    for (std::size_t i = 0; i < payloads.size(); ++i)
        identical = identical &&
                    svc::ok_response(payloads[i].first, payloads[i].second) == s.replies[i];
    detail.set("reply_replay_identical", Json::boolean(identical));
    {
        Span sp("layer.reply");
        add(m, "service.reply_us", per_call_us(payloads.size(), 20000, [&](std::size_t i) {
                sink += svc::encode_frame(svc::ok_response(payloads[i].first, payloads[i].second))
                            .size();
            }), "us");
    }
    std::vector<std::string> frames;
    for (const std::string& r : s.replies) frames.push_back(svc::encode_frame(r));
    {
        Span sp("layer.decode");
        add(m, "service.decode_us", per_call_us(frames.size(), 20000, [&](std::size_t i) {
                svc::FrameReader reader;
                reader.feed(frames[i]);
                sink += Json::parse(*reader.next()).size();
            }), "us");
    }

    // Lookup on a cache holding the workload's final entries (its file).
    {
        Span sp("layer.lookup");
        const std::string copy = cfg.workdir + "/layer-lookup.jsonl";
        std::filesystem::copy_file(s.cache_path, copy,
                                   std::filesystem::copy_options::overwrite_existing);
        const svc::PointCache cache(copy);
        std::vector<std::string> keys;
        for (const svc::Request& r : reqs) keys.push_back(key_of(r));
        add(m, "service.lookup_us", per_call_us(keys.size(), 20000, [&](std::size_t i) {
                sink += cache.lookup(keys[i]).has_value() ? 1 : 0;
            }), "us");
        add(m, "service.cache_entries", static_cast<double>(s.cache_entries), "count");
    }
    // Insert (with its fsync) of the recorded results into a fresh file.
    {
        Span sp("layer.insert");
        const std::string path = cfg.workdir + "/layer-insert.jsonl";
        std::filesystem::remove(path);
        svc::PointCache cache(path);
        const std::size_t n = std::min<std::size_t>(replies.size(), 256);
        add(m, "service.insert_us", per_call_us(n, n, [&](std::size_t i) {
                svc::CachedPoint cp;
                cp.key = "layer:" + std::to_string(i);
                cp.kind = "admission";
                cp.quality = "ok";
                cp.result = replies[i].at("result");
                cache.insert(std::move(cp));
            }), "us");
    }
    // nearest() copies a family neighbor's lattice out: 4 neighbors in each
    // recorded family, each holding a real converged state.
    {
        Span sp("layer.nearest");
        const hap::core::Solution0State* state = nullptr;
        for (const SolvedPoint& p : solver.points)
            if (!p.result.s0.state.empty()) state = &p.result.s0.state;
        std::vector<const svc::Request*> solves;
        svc::PointCache cache("");
        std::vector<std::string> families;
        for (const svc::Request& r : reqs) {
            if (r.op != svc::Op::Solve || state == nullptr) continue;
            solves.push_back(&r);
            const std::string family = svc::solve_family(r.model);
            if (std::find(families.begin(), families.end(), family) != families.end()) continue;
            families.push_back(family);
            for (int k = 0; k < 4; ++k) {
                svc::CachedPoint cp;
                cp.coord = r.model.lambda * (0.9 + 0.05 * k);
                cp.family = family;
                cp.key = family + ";" + std::to_string(k);
                cp.kind = "solve";
                cp.quality = "ok";
                cp.state = *state;
                cache.insert(std::move(cp));
            }
        }
        const std::size_t n = std::min<std::size_t>(solves.size(), 256);
        add(m, "service.nearest_us", per_call_us(n, n, [&](std::size_t i) {
                const auto got = cache.nearest(svc::solve_family(solves[i]->model),
                                               solves[i]->model.lambda);
                sink += got.has_value() ? got->state.pi.size() : 0;
            }), "us");
    }

    const double replies_n = static_cast<double>(std::max<std::uint64_t>(s.replies_n, 1));
    const std::uint64_t solved = s.warm + s.cold;
    add(m, "service.hits", static_cast<double>(s.hits), "count");
    add(m, "service.warm", static_cast<double>(s.warm), "count");
    add(m, "service.cold", static_cast<double>(s.cold), "count");
    add(m, "service.hit_ratio", static_cast<double>(s.hits) / replies_n, "ratio");
    add(m, "service.batch_mean",
        solved == 0 ? 0.0 : static_cast<double>(s.batch_sum) / static_cast<double>(solved),
        "count");
    add(m, "obs.scrape_ms", mean(s.scrape_ms), "ms");
    add(m, "obs.scrape_bytes", mean(s.scrape_bytes), "bytes");
    detail.set("replay_sink", Json::integer(static_cast<std::uint64_t>(sink)));
}

void solver_layers(const SolverRecord& s, std::vector<Metric>& m, Json& detail) {
    std::vector<double> call_ms = Tracer::get().durations_us("experiment.run_analytic_sweep");
    for (double& v : call_ms) v *= 1e-3;
    add(m, "experiment.solve_ms", mean(call_ms), "ms");
    // How much of the traced curves' wall time the solve spans cover.
    double curves_ms = 0.0;
    for (const double us : Tracer::get().durations_us("curve")) curves_ms += 1e-3 * us;
    if (curves_ms > 0.0)
        detail.set("solve_span_share",
                   Json::number(mean(call_ms) * static_cast<double>(call_ms.size()) / curves_ms));

    std::uint64_t warm = 0, hops = 0, sweeps = 0, states = 0, growths = 0;
    for (const SolvedPoint& p : s.points) {
        warm += p.result.s0.warm_started ? 1 : 0;
        hops += p.result.fallback_hops;
        sweeps += p.result.s0.sweeps;
        states += p.result.s0.states;
        growths += p.result.s0.box_growths;
    }
    add(m, "experiment.warm_starts", static_cast<double>(warm), "count");
    add(m, "experiment.fallback_hops", static_cast<double>(hops), "count");
    add(m, "core.sweeps", static_cast<double>(sweeps), "count");
    add(m, "core.states", static_cast<double>(states), "count");
    add(m, "core.box_growths", static_cast<double>(growths), "count");

    // Solver telemetry (obs registry) by point label: wall time of the
    // solve and the time inside its lattice-sweep loops.
    const hap::obs::MetricsSnapshot snap = hap::obs::registry().snapshot();
    std::vector<double> wall_ms, sweep_ms;
    double states_weighted = 0.0, sweep_total = 0.0;
    for (const SolvedPoint& p : s.points) {
        double wall = 0.0, sweep = 0.0;
        for (const auto& t : snap.solvers) {
            if (t.solver != "solution0" || t.label != p.result.name) continue;
            wall += t.wall_time_s;
            sweep += t.sweep_time_s;
            states_weighted += t.states_per_sec * t.sweep_time_s;
        }
        wall_ms.push_back(1e3 * wall);
        sweep_ms.push_back(1e3 * sweep);
        sweep_total += sweep;
    }

    // Rebuild the modulating chain on each sampled point's final (x, y) box
    // and solve it directly, as the solve does once per y growth.
    OpSpan op("layers.solver", 0, true);
    std::vector<double> build_ms, direct_ms;
    const std::size_t stride = std::max<std::size_t>(1, s.points.size() / 16);
    for (std::size_t i = 0; i < s.points.size(); i += stride) {
        const hap::core::Solution0State& st = s.points[i].result.s0.state;
        hap::core::ChainBounds b;
        b.max_users = st.x_hi;
        b.max_apps_total = st.y_hi;
        Span sp("layer.markov");
        const Clock::time_point t0 = Clock::now();
        const hap::core::LumpedChain chain(s.points[i].params, b);
        build_ms.push_back(ms_since(t0));
        const Clock::time_point t1 = Clock::now();
        const std::vector<double> pi = chain.solve_direct();
        direct_ms.push_back(ms_since(t1));
        if (pi.empty()) detail.set("direct_declined", Json::boolean(true));
    }
    const double build = mean(build_ms), direct = mean(direct_ms);
    const double lattice = mean(sweep_ms), wall = mean(wall_ms);
    add(m, "markov.build_ms", build, "ms");
    add(m, "markov.direct_ms", direct, "ms");
    add(m, "core.lattice_sweep_ms", lattice, "ms");
    add(m, "core.lattice_states_per_s", sweep_total > 0.0 ? states_weighted / sweep_total : 0.0,
        "1/s");
    add(m, "core.solve_other_ms", wall - lattice - build - direct, "ms");
    detail.set("solve_wall_ms", Json::number(wall));
    detail.set("solved_points", Json::integer(static_cast<std::uint64_t>(s.points.size())));
}

void sim_layers(const Config& cfg, const SimRecord& s, std::vector<Metric>& m, Json& detail) {
    double rep_total = 0.0;
    std::uint64_t events = 0;
    for (const RepTiming& r : s.reps) {
        rep_total += r.seconds;
        events += r.events;
    }
    const double n_reps = static_cast<double>(std::max<std::size_t>(s.reps.size(), 1));
    const double event_ns = events == 0 ? 0.0 : 1e9 * rep_total / static_cast<double>(events);
    add(m, "experiment.rep_s", rep_total / n_reps, "s");
    add(m, "experiment.parallel_eff",
        s.wall_s > 0.0 ? rep_total / (static_cast<double>(s.threads) * s.wall_s) : 0.0, "ratio");
    add(m, "core.sim_events", static_cast<double>(events), "count");
    add(m, "core.sim_event_ns", event_ns, "ns");
    add(m, "core.sim_draws_per_event", s.draws_per_event, "ratio");

    // The engine's per-event primitives, timed alone over a draw count of
    // the workload's order (the DESIGN §4k accounting, measured).
    OpSpan op("layers.sim", 0, true);
    const std::size_t n = 4000000;
    hap::sim::RandomStream rs = hap::sim::RandomStream::substream(
        cfg.seed, 0, hap::sim::component_id("hapbench.layers"));
    double acc = 0.0;
    double uniform_ns = 0.0, log1p_ns = 0.0, stats_ns = 0.0;
    {
        Span sp("layer.uniform");
        hap::sim::BlockRng block(rs);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) acc += block.uniform();
        uniform_ns = 1e9 * seconds_since(t0) / static_cast<double>(n);
    }
    std::vector<double> u(4096);
    for (double& x : u) x = rs.uniform();
    {
        Span sp("layer.log1p");
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            acc += -std::log1p(-u[i & 4095]) / (1.0 + static_cast<double>(i & 7));
        log1p_ns = 1e9 * seconds_since(t0) / static_cast<double>(n);
    }
    {
        Span sp("layer.stats");
        hap::stats::TimeWeightedStats tw;
        hap::stats::OnlineStats os;
        double t = 0.0;
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            t += u[i & 4095];
            tw.update(t, static_cast<double>(i & 15));
            os.add(u[(i + 7) & 4095]);
        }
        stats_ns = 1e9 * seconds_since(t0) / static_cast<double>(n);
        acc += tw.mean() + os.mean();
    }
    add(m, "sim.uniform_ns", uniform_ns, "ns");
    add(m, "sim.log1p_ns", log1p_ns, "ns");
    add(m, "stats.update_ns", stats_ns, "ns");
    // One holding-time inversion and one statistics update per event, plus
    // draws_per_event uniforms; what remains is the engine's own logic.
    add(m, "core.sim_engine_ns",
        event_ns - s.draws_per_event * uniform_ns - log1p_ns - stats_ns, "ns");
    detail.set("micro_sink", Json::number(acc));
}

}  // namespace

std::vector<Metric> layer_metrics(const Config& cfg, Records& rec, RunResult& out) {
    // A traced run prints every per-layer metric. A layer this workload does
    // not reach is measured on a smoke run of the workload that does, and
    // those metrics name that workload as their source.
    Config probe_cfg = cfg;
    probe_cfg.size = Size::Smoke;
    probe_cfg.seconds = 0.5;
    probe_cfg.traced = true;
    const auto probe = [&](const std::string& workload, auto run) {
        Records r;
        const RunResult p = run(probe_cfg, r);
        out.attempted += p.attempted;
        for (const std::string& f : p.failures) out.fail(workload + " probe: " + f);
        for (std::uint64_t k = p.failures.size(); k < p.failed; ++k)
            out.fail(workload + " probe failure");
        return r;
    };
    std::string service_src, solver_src, sim_src;
    if (!rec.service.filled) {
        service_src = "serve_hot";
        rec.service = std::move(probe(service_src, run_serve_hot).service);
    }
    if (!rec.solver.filled) {
        solver_src = "sweep_analytic";
        rec.solver = std::move(probe(solver_src, run_sweep_analytic).solver);
    }
    if (!rec.sim.filled) {
        sim_src = "sweep_sim";
        rec.sim = std::move(probe(sim_src, run_sweep_sim).sim);
    }
    // The solver telemetry the split reads lives in the obs registry.
    hap::obs::set_enabled(true);

    std::vector<Metric> m;
    Json detail = Json::object();
    const auto measured_on = [&m](std::size_t first, const std::string& source) {
        for (std::size_t i = first; i < m.size(); ++i) m[i].source = source;
    };
    service_layers(cfg, rec.service, rec.solver, m, detail);
    measured_on(0, service_src);
    std::size_t first = m.size();
    solver_layers(rec.solver, m, detail);
    measured_on(first, solver_src);
    first = m.size();
    sim_layers(cfg, rec.sim, m, detail);
    measured_on(first, sim_src);
    add(m, "trace.overhead_pct", rec.overhead.overhead_pct(), "%");
    detail.set("overhead_pairs", Json::integer(static_cast<std::uint64_t>(rec.overhead.pairs())));
    detail.set("spans_dropped", Json::integer(static_cast<std::uint64_t>(Tracer::get().dropped())));
    out.detail.set("layers", std::move(detail));
    return m;
}

}  // namespace hapbench
