// The two figure-sweep workloads, driven through experiment::.
//
//   sweep_analytic  the Fig. 11/12 analytic curves: one run_analytic_sweep
//                   (continuation: warm start + adaptive truncation) per
//                   mu'' in {17, 20, 24, 28}, sequential on one thread. The
//                   lattice sweeps and the modulating-chain solve dominate.
//   sweep_sim       the Fig. 12 simulated grid: 7 load points x replications
//                   through ExperimentRunner::run_all_contained on
//                   min(4, nproc) threads. The event engine dominates.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "experiment/runner.hpp"
#include "obs/metrics.hpp"

namespace hapbench {

namespace {

using hap::experiment::AnalyticPoint;
using hap::experiment::AnalyticSweepOptions;

constexpr double kCurves[] = {17.0, 20.0, 24.0, 28.0};

// 15 lambda-scale points 0.4..1.3 at full size; smaller runs take the first 4.
std::size_t curve_points(Size size) { return size == Size::Full ? 15 : 4; }

std::vector<AnalyticPoint> curve(double mu2, std::size_t npoints, const std::string& prefix) {
    std::vector<AnalyticPoint> grid;
    for (std::size_t i = 0; i < npoints; ++i) {
        const double s = 0.4 + 0.9 * static_cast<double>(i) / 14.0;
        char name[64];
        std::snprintf(name, sizeof(name), "mu=%g.s=%.4f", mu2, s);
        AnalyticPoint pt;
        pt.name = prefix + name;
        pt.params = hap::core::HapParams::paper_baseline(mu2);
        pt.params.user_arrival_rate *= s;
        pt.coord = s;
        grid.push_back(std::move(pt));
    }
    return grid;
}

// bench/solver_continuation's warm leg.
AnalyticSweepOptions analytic_options() {
    AnalyticSweepOptions o;
    o.solver.tol = 1e-7;
    o.solver.check_every = 10;
    o.solver.max_users = 20;
    o.solver.max_apps = 50;
    o.solver.max_messages = 300;
    return o;
}

std::string point_key(const std::string& name) {
    const std::size_t dot = name.find("mu=");
    return dot == std::string::npos ? name : name.substr(dot);
}

}  // namespace

RunResult run_sweep_analytic(const Config& cfg, Records& rec) {
    RunResult out;
    const std::size_t npoints = curve_points(cfg.size);
    const std::size_t setups = cfg.size == Size::Full ? 15 : 1;
    hap::obs::set_enabled(false);

    // Set-up: read the reference, build the curves, and solve a two-point
    // warm-up curve (first-touch allocation, lazy initialization).
    Json ref;
    for (std::size_t k = 0; k < setups; ++k) {
        const Clock::time_point t0 = Clock::now();
        ref = read_ref(cfg, "sweep_analytic.json");
        const auto warm = hap::experiment::run_analytic_sweep(curve(20.0, 2, "setup."),
                                                              analytic_options());
        out.setup_s.push_back(seconds_since(t0));
        if (warm.front().failed()) out.fail("set-up curve failed");
    }

    const auto check = [&](const hap::experiment::AnalyticPointResult& r) {
        const Json* want = ref.find(point_key(r.name));
        if (r.failed() || !r.s0.converged) {
            out.fail(r.name + " did not converge");
        } else if (want == nullptr) {
            out.fail("no sweep_analytic reference for " + point_key(r.name));
        } else if (!rel_close(r.s0.mean_delay, want->as_number(), 1e-6)) {
            out.fail(r.name + " mean_delay differs from the cold reference");
        }
    };

    // Timed phase: whole cycles over the four curves until the time is up;
    // a traced run alternates traced and untraced cycles, so each curve's
    // traced and untraced solves do the same work.
    const std::size_t min_cycles = cfg.traced ? 2 : 1;
    const Clock::time_point start = Clock::now();
    for (std::size_t c = 0; c < min_cycles || seconds_since(start) < cfg.seconds; ++c) {
        const bool traced = cfg.traced && c % 2 == 1;
        hap::obs::set_enabled(traced);
        for (std::size_t k = 0; k < 4; ++k) {
            const std::vector<AnalyticPoint> grid =
                curve(kCurves[k], npoints, "c" + std::to_string(c) + ".");
            const Clock::time_point q0 = Clock::now();
            std::vector<hap::experiment::AnalyticPointResult> res;
            {
                OpSpan op("curve", c * 4 + k + 1, traced);
                Span s("experiment.run_analytic_sweep");
                res = hap::experiment::run_analytic_sweep(grid, analytic_options());
            }
            const double ms = ms_since(q0);
            out.op_ms.push_back(ms);
            ++out.attempted;
            if (cfg.traced) rec.overhead.add(std::to_string(k), traced, ms);
            for (const auto& r : res) check(r);
        }
    }
    out.elapsed_s = seconds_since(start);

    // A traced run then solves the curves once more, untimed, with the
    // states exported and the solver telemetry on, for the layer replays.
    // The build/direct replays need only each point's box; one lattice is
    // kept for the cache nearest() replay.
    if (cfg.traced && !rec.solver.filled) {
        hap::obs::set_enabled(true);
        AnalyticSweepOptions opts = analytic_options();
        opts.export_states = true;
        for (const double mu2 : kCurves) {
            const std::vector<AnalyticPoint> grid = curve(mu2, npoints, "capture.");
            std::vector<hap::experiment::AnalyticPointResult> res =
                hap::experiment::run_analytic_sweep(grid, opts);
            for (std::size_t i = 0; i < res.size(); ++i) {
                check(res[i]);
                if (!rec.solver.points.empty()) {
                    res[i].s0.state.pi.clear();
                    res[i].s0.state.pi.shrink_to_fit();
                }
                rec.solver.points.push_back(SolvedPoint{grid[i].params, std::move(res[i])});
            }
        }
        rec.solver.filled = true;
    }
    hap::obs::set_enabled(false);
    out.detail.set("points_per_curve", Json::integer(static_cast<std::uint64_t>(npoints)));
    return out;
}

bool write_ref_sweep_analytic(const Config& cfg) {
    // Cold, non-adaptive solves on the worst-case box: the continuation
    // engine must change cost, not answers.
    AnalyticSweepOptions cold = analytic_options();
    cold.warm_start = false;
    cold.adaptive = false;
    Json doc = Json::object();
    for (const double mu2 : kCurves) {
        for (const auto& r : hap::experiment::run_analytic_sweep(
                 curve(mu2, curve_points(Size::Full), ""), cold)) {
            if (r.failed() || !r.s0.converged) return false;
            doc.set(r.name, Json::number(r.s0.mean_delay));
        }
    }
    return write_ref(cfg, "sweep_analytic.json", doc);
}

// --- sweep_sim ------------------------------------------------------------------

namespace {

using hap::experiment::ExperimentRunner;
using hap::experiment::Scenario;

constexpr double kWarmup = 5e4;

std::vector<Scenario> sim_grid(std::uint64_t seed, double horizon, std::size_t reps) {
    std::vector<Scenario> grid;
    for (const double scale : {0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.3}) {
        Scenario sc;
        char name[32];
        std::snprintf(name, sizeof(name), "fig12.load=%.2f", scale);
        sc.name = name;
        sc.params = hap::core::HapParams::paper_baseline(17.0);
        sc.params.user_arrival_rate *= scale;
        sc.warmup = kWarmup;
        sc.horizon = kWarmup + horizon;
        sc.replications = reps;
        sc.master_seed = seed;
        grid.push_back(std::move(sc));
    }
    return grid;
}

struct SimShape {
    double horizon;  // model time past the warmup
    std::size_t reps;
    std::size_t setups;
    const char* tag;  // reference key prefix
};

SimShape sim_shape(Size size) {
    if (size == Size::Full) return {2e5, 8, 15, "full"};
    return {2e4, 2, 1, "smoke"};
}

std::size_t sim_threads() {
    return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::string ref_key(const SimShape& shape, std::uint64_t seed) {
    return std::string(shape.tag) + "/seed=" + std::to_string(seed);
}

// Replication draws per event: step a copy of the starting engine until it
// equals the finished stream.
double draws_per_event(const Scenario& sc) {
    hap::sim::RandomStream rng = sc.stream(0);
    std::mt19937_64 probe = rng.engine();
    const hap::experiment::ReplicationResult r = ExperimentRunner::simulate_hap(sc, 0, rng);
    std::uint64_t draws = 0;
    while (probe != rng.engine()) {
        probe();
        ++draws;
    }
    return r.events == 0 ? 0.0 : static_cast<double>(draws) / static_cast<double>(r.events);
}

}  // namespace

RunResult run_sweep_sim(const Config& cfg, Records& rec) {
    RunResult out;
    const SimShape shape = sim_shape(cfg.size);
    const std::size_t threads = sim_threads();
    hap::obs::set_enabled(false);

    // Set-up: build the grid and runner, then run a one-replication grid
    // with a short horizon (spawns the pool, faults in the engine).
    std::vector<Scenario> grid;
    Json ref;
    for (std::size_t k = 0; k < shape.setups; ++k) {
        const Clock::time_point t0 = Clock::now();
        ref = read_ref(cfg, "sweep_sim.json");
        grid = sim_grid(cfg.seed, shape.horizon, shape.reps);
        const ExperimentRunner warmup_runner(threads);
        const auto warm = warmup_runner.run_all_contained(sim_grid(cfg.seed, 1e4, 1));
        out.setup_s.push_back(seconds_since(t0));
        if (!warm.failures.empty()) out.fail("set-up grid had failures");
    }
    const ExperimentRunner runner(threads);

    // Each replication is one op, timed inside the SimulateFn. A scenario's
    // replication run_id draws the same stream in every grid, so in a traced
    // run it is the same work in the traced and the untraced grids.
    std::mutex mu;  // guards reps and rec.overhead
    std::vector<RepTiming> reps;
    bool traced_grid = false;
    const ExperimentRunner::SimulateFn simulate =
        [&](const Scenario& sc, std::uint64_t run_id, hap::sim::RandomStream& rng) {
            const Clock::time_point t0 = Clock::now();
            hap::experiment::ReplicationResult r;
            {
                OpSpan op("replication", run_id + 1, traced_grid);
                Span s("experiment.simulate_hap");
                r = ExperimentRunner::simulate_hap(sc, run_id, rng);
            }
            const RepTiming t{seconds_since(t0), r.events};
            const std::lock_guard<std::mutex> lock(mu);
            reps.push_back(t);
            if (cfg.traced)
                rec.overhead.add(sc.name + "#" + std::to_string(run_id), traced_grid,
                                 1e3 * t.seconds);
            return r;
        };

    const Json* want = ref.find(ref_key(shape, cfg.seed));
    std::vector<std::uint64_t> first_events;
    std::vector<double> first_delay;
    const std::size_t min_grids = cfg.traced ? 2 : 1;
    double grid_wall = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t g = 0; g < min_grids || seconds_since(start) < cfg.seconds; ++g) {
        traced_grid = cfg.traced && g % 2 == 1;
        hap::obs::set_enabled(traced_grid);
        const std::size_t before = reps.size();
        const Clock::time_point g0 = Clock::now();
        const hap::experiment::ContainedSweep res = runner.run_all_contained(grid, simulate);
        const double wall = seconds_since(g0);
        for (std::size_t i = before; i < reps.size(); ++i)
            out.op_ms.push_back(1e3 * reps[i].seconds);
        out.attempted += grid.size() * shape.reps;
        for (const auto& f : res.failures) out.fail(f.scenario + ": " + f.what);
        for (std::size_t i = 0; i < res.merged.size(); ++i) {
            const std::uint64_t events = res.merged[i].events;
            const double delay = res.merged[i].delay_mean.mean;
            if (g == 0) {
                first_events.push_back(events);
                first_delay.push_back(delay);
                if (want != nullptr) {
                    const Json* e = want->find(grid[i].name);
                    if (e == nullptr || e->as_uint() != events)
                        out.fail(grid[i].name + " event total differs from the reference");
                }
            } else if (events != first_events[i] || delay != first_delay[i]) {
                // The runner's merge is bit-identical for a fixed seed, so a
                // repeat must reproduce the first grid exactly.
                out.fail(grid[i].name + " is not deterministic across repeats");
            }
        }
        grid_wall += wall;
    }
    out.elapsed_s = seconds_since(start);
    hap::obs::set_enabled(false);

    if (cfg.traced && !rec.sim.filled) {
        rec.sim.filled = true;
        rec.sim.reps = reps;
        rec.sim.wall_s = grid_wall;
        rec.sim.threads = threads;
        Scenario probe = grid[2];  // the Fig. 12 reference load, 0.8
        probe.horizon = kWarmup + 1e4;
        rec.sim.draws_per_event = draws_per_event(probe);
    }
    out.detail.set("reference", Json::boolean(want != nullptr));
    out.detail.set("threads", Json::integer(static_cast<std::uint64_t>(threads)));
    out.detail.set("replications_per_point", Json::integer(static_cast<std::uint64_t>(shape.reps)));
    return out;
}

bool write_ref_sweep_sim(const Config& cfg) {
    Json doc = Json::object();
    for (const Size size : {Size::Full, Size::Smoke}) {
        const SimShape shape = sim_shape(size);
        for (const std::uint64_t seed : {1, 2}) {
            const auto grid = sim_grid(seed, shape.horizon, shape.reps);
            const auto res = ExperimentRunner(sim_threads()).run_all_contained(grid);
            if (!res.failures.empty()) return false;
            Json totals = Json::object();
            for (std::size_t i = 0; i < grid.size(); ++i)
                totals.set(grid[i].name, Json::integer(res.merged[i].events));
            doc.set(ref_key(shape, seed), std::move(totals));
        }
    }
    return write_ref(cfg, "sweep_sim.json", doc);
}

}  // namespace hapbench
