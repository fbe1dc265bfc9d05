// hapctl — command-line front end to the HAP library.
//
//   hapctl analyze  [model flags] [--service R]
//       lambda-bar / rho and the G/M/1 analysis (Solutions 1 and 2),
//       against the M/M/1 baseline.
//   hapctl solve0   [model flags] [--service R] [--zmax N] [--sweeps N]
//       exact truncated-lattice solve (Solution 0) + matrix-geometric
//       cross-check on small chains.
//   hapctl simulate [model flags] [--horizon T] [--seed S] [--buffer K]
//                   [--arrivals-out FILE]
//       event-driven simulation; optionally dump the arrival trace.
//   hapctl fit      --trace FILE [--burst R] [--duty D]
//       measure a recorded arrival trace and fit on-off / 2-level HAP.
//   hapctl admission [model flags] --budget T [--service R]
//       required bandwidth, admissible workload, decision table.
//   hapctl sweep    [model flags] [--service-grid SPEC] [--lambda-grid SPEC]
//                   [--reps N] [--horizon T] [--warmup T] [--seed S]
//                   [--threads N] [--buffer K] [--json FILE] [--metrics]
//                   [--analytic] [--warm-start 0|1] [--trunc-tol E] [--tol E]
//                   [--checkpoint FILE [--resume]] [--fault-inject SPEC]
//                   [--budget-iters N] [--budget-states N] [--budget-wall-ms T]
//       replicated simulation over a parameter grid, fanned across the
//       experiment thread pool; SPEC is "a,b,c" or "lo:hi:step". --metrics
//       appends the "hap.obs.metrics/v1" telemetry block to the JSON, which
//       goes to stdout when there is no --json FILE.
//       --analytic solves the grid with Solution 0 instead, in lambda order
//       as a warm-started continuation chain on adaptively grown boxes
//       (--warm-start, default 1, turns the engine off for A/B comparison).
//       Execution is fault-contained: a failing (scenario, rep) job becomes
//       one record of the "failures" block instead of aborting the sweep
//       (exit stays 0 unless EVERY job failed). --checkpoint appends each
//       finished job to FILE (crash-safe JSONL, schema "hap.ckpt/v1");
//       --resume restores completed jobs from it and re-runs only the rest —
//       the merged output is byte-identical to an uninterrupted run.
//       --fault-inject (or HAP_FAULT_INJECT) injects deterministic faults,
//       e.g. "throw@lambda=0.5#1,nan@lambda=1"; --budget-* caps Solution 0
//       work per point (see core/budget.hpp). --threads sizes the
//       replication pool; the analytic chain is sequential, so --analytic
//       rejects it.
//   hapctl metrics-dump [model flags] [--horizon T] [--reps N] [--solve0]
//       run a representative slice of the solver/simulation stack with the
//       observability registry enabled and print its hap.obs.metrics/v1 JSON.
//
// Model flags (defaults = the paper's Section-4 baseline):
//   --lambda --mu --lambda1 --mu1 --l --lambda2 --m --service
//   --max-users --max-apps (admission bounds, 0 = unbounded)
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "core/hap.hpp"
#include "experiment/experiment.hpp"
#include "obs/metrics.hpp"
#include "queueing/mm1.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "trace/arrival_log.hpp"
#include "traffic/fitting.hpp"

namespace {

using namespace hap;

// Millisecond flags that end up in an int (socket timeouts).
constexpr std::size_t kIntMax = std::numeric_limits<int>::max();

const std::vector<std::string> kModelFlags{
    "lambda", "mu", "lambda1", "mu1", "l", "lambda2", "m", "service",
    "max-users", "max-apps"};

std::vector<std::string> with(const std::vector<std::string>& base,
                              std::initializer_list<const char*> extra) {
    std::vector<std::string> out = base;
    for (const char* e : extra) out.emplace_back(e);
    return out;
}

// The model flags at one sweep grid point: the user arrival rate scaled by
// `lambda_scale`, the service rate replaced by `service`.
core::HapParams model_at(const cli::Flags& f, double lambda_scale, double service) {
    core::HapParams p = core::HapParams::homogeneous(
        f.number("lambda", 0.0055) * lambda_scale, f.number("mu", 0.001),
        f.number("lambda1", 0.01), f.number("mu1", 0.01), f.count("l", 5),
        f.number("lambda2", 0.1), f.count("m", 3), service);
    p.max_users = f.count("max-users", 0);
    p.max_apps = f.count("max-apps", 0);
    return p;
}

core::HapParams model_from_flags(const cli::Flags& f) {
    core::HapParams p = model_at(f, 1.0, f.number("service", 20.0));
    p.validate();
    return p;
}

// The result document's epilogue: the telemetry block under --metrics, then
// the document to --json FILE, or to stdout when --metrics has no FILE.
void finish_document(const cli::Flags& f, experiment::JsonWriter& json, bool metrics) {
    if (metrics)
        json.metrics_block(experiment::obs_metrics_json(obs::registry().snapshot()));
    const std::string out = f.text("json", "");
    if (!out.empty()) {
        if (json.write_file(out))
            std::printf("\njson results written to %s\n", out.c_str());
        else
            throw std::runtime_error("cannot write " + out);
    } else if (metrics) {
        std::printf("%s\n", json.dump().c_str());
    }
}

int cmd_analyze(const cli::Flags& f) {
    f.reject_unknown(kModelFlags);
    const core::HapParams p = model_from_flags(f);
    const double mu = f.number("service", 20.0);
    const core::Solution2 s2(p);
    std::printf("model: %zu app types, lambda-bar %.4f msg/s, rho %.4f\n",
                p.num_app_types(), s2.mean_rate(), s2.mean_rate() / mu);
    std::printf("       unbounded means: %.3f users, %.3f apps%s\n", p.mean_users(),
                p.mean_apps(), p.bounded() ? " (admission bounds active)" : "");

    const auto q2 = s2.solve_queue(mu);
    if (!q2.stable) {
        std::printf("UNSTABLE at service rate %.3f\n", mu);
        return 1;
    }
    std::printf("Solution 2: sigma %.4f, delay %.5f s, mean queue %.4f\n", q2.sigma,
                q2.mean_delay, q2.mean_number);
    const core::Solution1 s1(p);
    const auto q1 = s1.solve_queue(mu);
    std::printf("Solution 1: sigma %.4f, delay %.5f s (%zu chain states)\n",
                q1.sigma, q1.mean_delay, s1.chain_states());
    const queueing::Mm1 mm1(s2.mean_rate(), mu);
    std::printf("M/M/1     : delay %.5f s  (HAP/Poisson %.2fx)\n", mm1.mean_delay(),
                q2.mean_delay / mm1.mean_delay());
    std::printf("note: Solutions 1/2 lose interarrival correlation; the true\n"
                "delay is higher at load (run 'hapctl solve0' or 'simulate').\n");
    return 0;
}

// Shared --budget-* parsing (see core/budget.hpp for semantics).
core::SolveBudget budget_from_flags(const cli::Flags& f) {
    core::SolveBudget b;
    b.max_iterations = f.count("budget-iters", 0);
    b.max_states = f.count("budget-states", 0);
    b.wall_ms = static_cast<std::uint64_t>(f.count("budget-wall-ms", 0));
    return b;
}

int cmd_solve0(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags, {"zmax", "sweeps", "tol", "verbose",
                                        "budget-iters", "budget-states",
                                        "budget-wall-ms"}));
    const core::HapParams p = model_from_flags(f);
    core::Solution0Options o;
    o.max_messages = f.count("zmax", 0);
    o.max_sweeps = f.count("sweeps", 8000);
    o.tol = f.number("tol", 1e-8);
    o.verbose = f.has("verbose");
    o.check_every = 100;
    o.budget = budget_from_flags(f);
    const auto s0 = solve_solution0(p, o);
    std::printf("Solution 0: delay %.5f s, sigma %.4f, utilization %.4f\n",
                s0.mean_delay, s0.sigma, s0.utilization);
    std::printf("            %zu states, %zu sweeps, %s, boundary mass %.2e%s\n",
                s0.states, s0.sweeps, s0.converged ? "converged" : "NOT converged",
                s0.truncation_mass,
                s0.budget_exhausted ? "  (budget exhausted)" : "");
    std::printf("(mean delay grows with --zmax on heavy-tailed workloads; see\n"
                " bench/ablation_truncation)\n");
    return s0.converged ? 0 : 1;
}

int cmd_simulate(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags,
                          {"horizon", "warmup", "seed", "buffer", "arrivals-out"}));
    const core::HapParams p = model_from_flags(f);
    core::HapSimOptions o;
    o.horizon = f.number("horizon", 1e6);
    o.warmup = f.number("warmup", o.horizon * 0.02);
    o.buffer_capacity = f.count("buffer", 0);
    o.record_arrival_times = f.has("arrivals-out");
    sim::RandomStream rng(f.seed("seed", 1));
    const auto res = simulate_hap_queue(p, rng, o);
    std::printf("simulated %.3g model-seconds: %llu arrivals, %llu departures\n",
                o.horizon, static_cast<unsigned long long>(res.arrivals),
                static_cast<unsigned long long>(res.departures));
    std::printf("delay: mean %.5f s, max %.3f s;  queue: mean %.4f, max %.0f\n",
                res.delay.mean(), res.delay.max(), res.number.mean(),
                res.number.max());
    std::printf("utilization %.4f;  busy periods: %llu, longest %.1f s, tallest %.0f\n",
                res.utilization, static_cast<unsigned long long>(res.busy.mountains()),
                res.busy.busy_lengths().max(), res.busy.heights().max());
    if (o.buffer_capacity > 0) {
        const double offered = static_cast<double>(res.arrivals + res.losses);
        std::printf("losses: %llu (%.4f%% of offered)\n",
                    static_cast<unsigned long long>(res.losses),
                    offered > 0 ? 100.0 * static_cast<double>(res.losses) / offered
                                : 0.0);
    }
    const std::string out = f.text("arrivals-out", "");
    if (!out.empty()) {
        trace::write_arrival_trace(out, res.arrival_times, "hapctl simulate");
        std::printf("arrival trace (%zu events) written to %s\n",
                    res.arrival_times.size(), out.c_str());
    }
    return 0;
}

int cmd_fit(const cli::Flags& f) {
    f.reject_unknown({"trace", "burst", "duty", "window"});
    const std::string path = f.text("trace", "");
    if (path.empty()) throw std::invalid_argument("fit requires --trace FILE");
    const auto times = trace::read_arrival_trace(path);
    const auto m = traffic::measure_moments(times, f.number("window", 0.0));
    std::printf("trace: %zu arrivals over %.4g s\n", times.size(),
                times.back() - times.front());
    std::printf("moments: rate %.4f msg/s, interarrival SCV %.3f, IDC %.2f\n",
                m.mean_rate, m.interarrival_scv, m.idc);
    if (m.idc <= 1.0) {
        std::printf("IDC <= 1: stream is Poisson-like or smoother; nothing to fit.\n");
        return 0;
    }
    const double duty = f.number("duty", 0.3);
    const auto onoff = traffic::fit_onoff(m.mean_rate, m.idc, duty);
    std::printf("fitted on-off (duty %.2f): peak %.4f msg/s, mean %.4f msg/s\n",
                duty, onoff.peak_rate(), onoff.mean_rate());
    const double burst = f.number("burst", m.mean_rate / 4.0);
    const core::HapParams hap2 = core::fit_hap_two_level(m.mean_rate, m.idc, burst);
    std::printf("fitted 2-level HAP: %.3f mean calls, call churn %.5f /s, "
                "burst %.3f msg/s\n",
                hap2.mean_apps(), hap2.apps[0].departure_rate, burst);
    std::printf("caveat: matching (rate, IDC) does not pin the delay — see\n"
                "examples/traffic_fitting.\n");
    return 0;
}

// hapctl sweep --analytic: Solution 0 over the same grid, solved as a
// continuation chain (run_analytic_sweep) — points in lambda order, each
// seeded from its predecessors, on adaptively grown truncation boxes. The
// chain restarts at every service value (a service jump is not a small
// parameter step). --warm-start 0 solves every point cold on the worst-case
// static box, which is the comparison baseline for the continuation engine.
int cmd_sweep_analytic(const cli::Flags& f, bool metrics) {
    // Each point is seeded from its predecessor, so there is nothing for a
    // worker pool to share; a silently ignored --threads would mislead.
    if (f.has("threads"))
        throw std::invalid_argument(
            "--threads does not apply to --analytic (the continuation chain is "
            "sequential)");
    experiment::SweepArgs args;
    args.services = f.has("service-grid")
                        ? experiment::parse_grid(f.text("service-grid", ""))
                        : std::vector<double>{f.number("service", 20.0)};
    args.lambda_scales = f.has("lambda-grid")
                             ? experiment::parse_grid(f.text("lambda-grid", ""))
                             : std::vector<double>{1.0};
    // No simulation in this mode; satisfy the shared validator's sim fields.
    args.reps = 1;
    args.horizon = 1.0;
    args.validate();

    experiment::AnalyticSweepOptions opts;
    opts.warm_start = f.count("warm-start", 1) != 0;
    opts.adaptive = opts.warm_start;
    opts.solver.tol = f.number("tol", 1e-7);
    opts.solver.trunc_tol = f.number("trunc-tol", 1e-9);
    opts.solver.max_messages = f.count("zmax", 0);
    opts.solver.max_sweeps = f.count("sweeps", 8000);
    opts.solver.check_every = 10;
    opts.solver.budget = budget_from_flags(f);

    experiment::JsonWriter json("hapctl_sweep_analytic");
    json.meta("warm_start", experiment::Json::boolean(opts.warm_start));
    std::printf("analytic sweep: %zu grid points, warm starts %s\n\n",
                args.services.size() * args.lambda_scales.size(),
                opts.warm_start ? "on" : "off");
    std::printf("%10s %10s %8s %12s %8s %8s %10s %6s\n", "service", "lam-scale",
                "rho", "delay T", "util", "sweeps", "states", "warm");
    int rc = 0;
    std::vector<experiment::FailureRecord> failures;
    for (double service : args.services) {
        std::vector<experiment::AnalyticPoint> grid;
        for (double scale : args.lambda_scales) {
            experiment::AnalyticPoint pt;
            char name[64];
            std::snprintf(name, sizeof(name), "sweep.service=%g.lambda=%g", service,
                          scale);
            pt.name = name;
            pt.params = model_at(f, scale, service);
            pt.coord = scale;
            grid.push_back(std::move(pt));
        }
        const auto results = experiment::run_analytic_sweep(grid, opts, &failures);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto& pr = results[i];
            const auto& s0 = pr.s0;
            const double lbar = grid[i].params.mean_message_rate();
            if (!s0.converged) rc = 1;
            char note[96] = "";
            if (pr.quality != "ok") {
                std::snprintf(note, sizeof(note), "  %s (%zu fallback hops)",
                              pr.quality.c_str(), pr.fallback_hops);
            } else if (pr.fallback_hops > 0) {
                std::snprintf(note, sizeof(note), "  recovered (%zu fallback hops)",
                              pr.fallback_hops);
            } else if (!s0.converged) {
                std::snprintf(note, sizeof(note), "  NOT converged");
            }
            std::printf("%10.3f %10.3f %8.3f %12.5f %8.4f %8zu %10zu %6s%s\n",
                        service, args.lambda_scales[i], lbar / service, s0.mean_delay,
                        s0.utilization, s0.sweeps, s0.states,
                        s0.warm_started ? "yes" : "no", note);

            experiment::Json point = experiment::JsonWriter::point(results[i].name);
            experiment::Json params = experiment::Json::object();
            params.set("service", experiment::Json::number(service));
            params.set("lambda_scale", experiment::Json::number(args.lambda_scales[i]));
            params.set("rho", experiment::Json::number(lbar / service));
            point.set("params", std::move(params));
            experiment::Json m = experiment::Json::object();
            m.set("mean_delay", experiment::Json::number(s0.mean_delay));
            m.set("utilization", experiment::Json::number(s0.utilization));
            m.set("sigma", experiment::Json::number(s0.sigma));
            m.set("truncation_mass", experiment::Json::number(s0.truncation_mass));
            m.set("sweeps", experiment::Json::integer(
                                static_cast<std::uint64_t>(s0.sweeps)));
            m.set("states", experiment::Json::integer(
                                static_cast<std::uint64_t>(s0.states)));
            m.set("box_growths", experiment::Json::integer(
                                     static_cast<std::uint64_t>(s0.box_growths)));
            m.set("warm_started", experiment::Json::boolean(s0.warm_started));
            m.set("converged", experiment::Json::boolean(s0.converged));
            point.set("solution0", std::move(m));
            // Fault-tolerance annotations only on affected points, so a clean
            // sweep's document is byte-identical to pre-containment output.
            if (pr.quality != "ok" || pr.fallback_hops > 0) {
                point.set("quality", experiment::Json::string(pr.quality));
                point.set("fallback_hops",
                          experiment::Json::integer(
                              static_cast<std::uint64_t>(pr.fallback_hops)));
                if (!pr.error.empty())
                    point.set("error", experiment::Json::string(pr.error));
            }
            json.add_point(std::move(point));
        }
    }
    if (!failures.empty()) json.failures_block(experiment::failures_block_json(failures));
    finish_document(f, json, metrics);
    return rc;
}

int cmd_sweep(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags,
                          {"service-grid", "lambda-grid", "reps", "horizon", "warmup",
                           "seed", "threads", "buffer", "json", "metrics", "analytic",
                           "warm-start", "trunc-tol", "tol", "zmax", "sweeps",
                           "checkpoint", "resume", "fault-inject", "budget-iters",
                           "budget-states", "budget-wall-ms"}));
    // --metrics (or HAP_BENCH_METRICS) turns on the observability registry:
    // per-replication telemetry plus a labeled analytic solve per grid point,
    // all appended to the JSON document as the "metrics" block.
    const bool metrics = f.has("metrics") || obs::enabled();
    if (metrics) obs::set_enabled(true);
    // --fault-inject overrides the HAP_FAULT_INJECT environment plan.
    if (f.has("fault-inject"))
        experiment::set_fault_plan(experiment::FaultPlan::parse(f.text("fault-inject", "")));
    // --analytic switches the whole sweep to Solution 0 with the continuation
    // engine; --warm-start defaults on there (simulation sweeps have no
    // iterate to carry, so the flag is analytic-only).
    if (f.has("analytic")) return cmd_sweep_analytic(f, metrics);
    // Grid axes: "a,b,c" or "lo:hi:step" (experiment::parse_grid). An absent
    // flag falls back to a single default point; a present-but-bad spec
    // (including an empty one) is rejected with a clear error.
    experiment::SweepArgs args;
    args.services = f.has("service-grid")
                        ? experiment::parse_grid(f.text("service-grid", ""))
                        : std::vector<double>{f.number("service", 20.0)};
    // Workload axis: multipliers on the user arrival rate (the paper's Fig. 12
    // load knob).
    args.lambda_scales = f.has("lambda-grid")
                             ? experiment::parse_grid(f.text("lambda-grid", ""))
                             : std::vector<double>{1.0};
    args.horizon = f.number("horizon", 1e6);
    args.warmup = f.number("warmup", args.horizon * 0.02);
    args.reps = f.count("reps", 8);
    args.validate();

    const std::vector<double>& services = args.services;
    const std::vector<double>& lambda_scales = args.lambda_scales;
    const double horizon = args.horizon;
    const double warmup = args.warmup;
    const std::size_t reps = args.reps;

    std::vector<experiment::Scenario> grid;
    for (double service : services) {
        for (double scale : lambda_scales) {
            experiment::Scenario sc;
            char name[64];
            std::snprintf(name, sizeof(name), "sweep.service=%g.lambda=%g", service,
                          scale);
            sc.name = name;
            sc.params = model_at(f, scale, service);
            sc.horizon = horizon;
            sc.warmup = warmup;
            sc.buffer_capacity = f.count("buffer", 0);
            sc.replications = reps;
            sc.master_seed = f.seed("seed", sc.master_seed);
            grid.push_back(std::move(sc));
        }
    }

    const experiment::ExperimentRunner runner(f.count("threads", 0));
    std::printf("sweep: %zu grid points x %zu replications on %zu threads\n\n",
                grid.size(), reps, runner.threads());

    // Crash-safe checkpointing. The config fingerprint pins the job set and
    // the RNG identity; --resume refuses a checkpoint written for a different
    // sweep instead of silently merging alien replications.
    char fingerprint[256];
    std::snprintf(fingerprint, sizeof(fingerprint),
                  "hapctl-sweep;services=%s;lambdas=%s;reps=%zu;horizon=%g;"
                  "warmup=%g;buffer=%zu;seed=%llu",
                  f.text("service-grid", "default").c_str(),
                  f.text("lambda-grid", "default").c_str(), reps, horizon, warmup,
                  f.count("buffer", 0),
                  static_cast<unsigned long long>(
                      grid.empty() ? experiment::kDefaultMasterSeed
                                   : grid.front().master_seed));
    const std::string ckpt_path = f.text("checkpoint", "");
    if (f.has("resume") && ckpt_path.empty())
        throw std::invalid_argument("--resume requires --checkpoint FILE");
    experiment::CheckpointData ckpt_data;
    std::optional<experiment::CheckpointWriter> ckpt_writer;
    experiment::ContainOptions copts;
    if (!ckpt_path.empty()) {
        if (f.has("resume")) {
            ckpt_data = experiment::read_checkpoint(ckpt_path);
            if (!ckpt_data.config.empty() && ckpt_data.config != fingerprint) {
                throw std::runtime_error("checkpoint " + ckpt_path +
                                         " was written for a different sweep (config \"" +
                                         ckpt_data.config + "\")");
            }
            if (!ckpt_data.entries.empty())
                std::printf("resuming: %zu checkpointed jobs restored from %s\n",
                            ckpt_data.entries.size(), ckpt_path.c_str());
            copts.resume = &ckpt_data;
        } else {
            std::remove(ckpt_path.c_str());  // fresh sweep, fresh checkpoint
        }
        ckpt_writer.emplace(ckpt_path, fingerprint);
        copts.checkpoint = &*ckpt_writer;
    }

    const experiment::ContainedSweep sweep = runner.run_all_contained(grid, copts);
    const std::vector<experiment::MergedResult>& results = sweep.merged;

    experiment::JsonWriter json("hapctl_sweep");
    json.meta("threads", experiment::Json::integer(
                             static_cast<std::uint64_t>(runner.threads())));
    json.meta("replications",
              experiment::Json::integer(static_cast<std::uint64_t>(reps)));
    std::printf("%10s %10s %12s %8s %22s %22s %8s\n", "service", "lam-scale",
                "lambda-bar", "rho", "delay T (95% CI)", "queue N (95% CI)", "util");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const double service = services[i / lambda_scales.size()];
        const double scale = lambda_scales[i % lambda_scales.size()];
        const auto& m = results[i];
        const double lbar = grid[i].params.mean_message_rate();
        char delay_ci[48], number_ci[48], note[80] = "";
        std::snprintf(delay_ci, sizeof(delay_ci), "%.4f+-%.4f", m.delay_mean.mean,
                      m.delay_mean.half_width);
        std::snprintf(number_ci, sizeof(number_ci), "%.3f+-%.3f", m.number_mean.mean,
                      m.number_mean.half_width);
        if (sweep.survivors[i] < reps)
            std::snprintf(note, sizeof(note), "  (%zu/%zu reps survived)",
                          sweep.survivors[i], reps);
        std::printf("%10.3f %10.3f %12.4f %8.3f %22s %22s %8.3f%s\n", service, scale,
                    lbar, lbar / service, delay_ci, number_ci, m.utilization.mean,
                    note);

        if (metrics) {
            // Labeled analytic cross-check: the gm1/solution2 records carry
            // this sweep point's sigma iterations and converged flag.
            const obs::ScopedLabel scope(grid[i].name);
            const core::Solution2 s2(grid[i].params);
            (void)s2.solve_queue(service);
        }

        experiment::Json point = experiment::JsonWriter::point(grid[i].name);
        experiment::Json params = experiment::Json::object();
        params.set("service", experiment::Json::number(service));
        params.set("lambda_scale", experiment::Json::number(scale));
        params.set("lambda_bar", experiment::Json::number(lbar));
        params.set("rho", experiment::Json::number(lbar / service));
        point.set("params", std::move(params));
        point.set("metrics", experiment::metrics_json(m));
        // Degradation annotation only on points that lost replications, so a
        // fault-free document is byte-identical to pre-containment output.
        if (sweep.survivors[i] < reps) {
            point.set("survivors",
                      experiment::Json::integer(
                          static_cast<std::uint64_t>(sweep.survivors[i])));
            point.set("quality", experiment::Json::string("degraded"));
        }
        json.add_point(std::move(point));
    }

    if (!sweep.failures.empty()) {
        std::printf("\n%zu job(s) failed (see the \"failures\" block)\n",
                    sweep.failures.size());
        json.failures_block(experiment::failures_block_json(sweep.failures));
    }
    finish_document(f, json, metrics);
    return 0;
}

// hapctl metrics-dump: run a representative slice of the stack (Solutions 1/2,
// a small matrix-geometric solve, optionally Solution 0, and a short
// replicated simulation) with the observability registry on, then print the
// hap.obs.metrics/v1 document. Fast by default; --solve0 adds the lattice sweep.
int cmd_metrics_dump(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags, {"horizon", "seed", "reps", "threads",
                                        "solve0", "zmax", "sweeps"}));
    obs::set_enabled(true);
    const core::HapParams p = model_from_flags(f);
    const double mu = f.number("service", 20.0);
    {
        const obs::ScopedLabel scope("analytic");
        const core::Solution1 s1(p);
        (void)s1.solve_queue(mu);
        const core::Solution2 s2(p);
        (void)s2.solve_queue(mu);
    }
    {
        // Small phase space: QBD cost is cubic, and the point here is the
        // telemetry shape, not a converged delay figure.
        const obs::ScopedLabel scope("qbd-small");
        core::ChainBounds b;
        b.max_users = 4;
        b.max_apps_total = 12;
        (void)core::solve_solution3(p, b);
    }
    if (f.has("solve0")) {
        const obs::ScopedLabel scope("solve0");
        core::Solution0Options o;
        o.max_messages = f.count("zmax", 0);
        o.max_sweeps = f.count("sweeps", 8000);
        o.tol = 1e-8;
        o.check_every = 100;
        (void)solve_solution0(p, o);
    }
    {
        experiment::Scenario sc;
        sc.name = "metrics-dump.sim";
        sc.params = p;
        sc.horizon = f.number("horizon", 2e5);
        sc.warmup = sc.horizon * 0.02;
        sc.replications = f.count("reps", 4);
        sc.master_seed = f.seed("seed", sc.master_seed);
        const experiment::ExperimentRunner runner(f.count("threads", 0));
        (void)runner.run(sc);
    }
    std::printf("%s\n",
                experiment::obs_metrics_json(obs::registry().snapshot()).dump().c_str());
    return 0;
}

int cmd_admission(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags, {"budget", "users"}));
    const core::HapParams p = model_from_flags(f);
    const double mu = f.number("service", 20.0);
    const double budget = f.number("budget", 0.1);
    std::printf("delay budget %.4f s at service rate %.2f msg/s\n\n", budget, mu);
    std::printf("required bandwidth for this workload: %.3f msg/s\n",
                core::required_bandwidth(p, budget));
    std::printf("admissible workload at %.2f msg/s: %.4f msg/s\n\n", mu,
                core::admissible_workload(p, mu, budget));
    const auto rows =
        core::admission_decision_table(p, mu, budget, f.count("users", 10));
    std::printf("%12s %12s %14s %12s\n", "user bound", "app bound", "lambda-bar",
                "delay (s)");
    for (const auto& r : rows) {
        if (r.feasible) {
            std::printf("%12zu %12zu %14.4f %12.5f\n", r.max_users, r.max_apps,
                        r.mean_rate, r.mean_delay);
        } else {
            std::printf("%12zu %12s %14s %12s\n", r.max_users, "-", "-", "infeasible");
        }
    }
    return 0;
}

int cmd_serve(const cli::Flags& f) {
    f.reject_unknown({"socket", "port", "threads", "cache", "tol", "trunc-tol",
                      "sweeps", "zmax", "timeout-ms",
                      "budget-iters", "budget-states", "budget-wall-ms",
                      "max-conns", "max-pending", "retry-after-ms",
                      "degrade-depth", "shed-depth", "approx-dist",
                      "clamp-iters"});
    service::ServeOptions o;
    o.socket_path = f.text("socket", "");
    o.port = static_cast<int>(f.count_at_most("port", 0, 65535));
    o.threads = f.count("threads", 4);
    o.cache_path = f.text("cache", "");
    o.tol = f.number("tol", 1e-7);
    o.trunc_tol = f.number("trunc-tol", 1e-9);
    o.max_sweeps = f.count("sweeps", 8000);
    o.zmax = f.count("zmax", 0);
    o.recv_timeout_ms = static_cast<int>(f.count_at_most("timeout-ms", 30000, kIntMax));
    o.budget = budget_from_flags(f);
    // Overload governor & degradation ladder (DESIGN.md §4l).
    o.max_connections = f.count("max-conns", 0);
    o.max_pending = f.count("max-pending", 16);
    o.retry_after_ms = f.count("retry-after-ms", 50);
    o.degrade_depth = f.count("degrade-depth", 0);
    o.shed_depth = f.count("shed-depth", 0);
    o.approx_rel_distance = f.number("approx-dist", 0.05);
    o.clamp_budget.max_iterations = f.count("clamp-iters", 250);
    o.log = [](const std::string& line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    };
    service::Hapd daemon(std::move(o));
    daemon.start();
    // The machine-readable readiness line the test fixture / CI waits for.
    std::printf("READY %s\n", daemon.endpoint().c_str());
    std::fflush(stdout);
    daemon.wait();  // until a client's shutdown op
    daemon.stop();
    std::printf("hapd: stopped (%zu cached points)\n", daemon.cache().size());
    return 0;
}

service::ModelSpec spec_from_flags(const cli::Flags& f) {
    service::ModelSpec s;
    s.lambda = f.number("lambda", s.lambda);
    s.mu = f.number("mu", s.mu);
    s.lambda1 = f.number("lambda1", s.lambda1);
    s.mu1 = f.number("mu1", s.mu1);
    s.l = f.count("l", s.l);
    s.lambda2 = f.number("lambda2", s.lambda2);
    s.m = f.count("m", s.m);
    s.service = f.number("service", s.service);
    s.max_users = f.count("max-users", s.max_users);
    s.max_apps = f.count("max-apps", s.max_apps);
    return s;
}

int cmd_query(const cli::Flags& f) {
    f.reject_unknown(with(kModelFlags, {"socket", "port", "op", "budget", "id",
                                        "deadline-ms", "retries", "retry-base-ms",
                                        "retry-seed", "connect-timeout-ms"}));
    const std::string op = f.text("op", "solve");
    const std::string id = f.text("id", "cli");
    const auto deadline_ms = static_cast<std::uint64_t>(f.count("deadline-ms", 0));
    std::string body;
    if (op == "solve") {
        body = service::build_solve_request(spec_from_flags(f), id, deadline_ms);
    } else if (op == "admission") {
        body = service::build_admission_request(spec_from_flags(f),
                                                f.number("budget", 0.1), id,
                                                deadline_ms);
    } else if (op == "ping") {
        body = service::build_simple_request(service::Op::Ping, id);
    } else if (op == "metrics") {
        body = service::build_simple_request(service::Op::Metrics, id);
    } else if (op == "shutdown") {
        body = service::build_simple_request(service::Op::Shutdown, id);
    } else {
        throw std::invalid_argument("unknown --op '" + op +
                                    "' (solve|admission|ping|metrics|shutdown)");
    }
    const int connect_timeout_ms =
        static_cast<int>(f.count_at_most("connect-timeout-ms", 5000, kIntMax));
    const int port = static_cast<int>(f.count_at_most("port", 0, 65535));
    const auto connect = [&]() {
        return f.has("socket")
                   ? service::Client::connect_unix(f.text("socket", ""),
                                                   connect_timeout_ms)
                   : service::Client::connect_tcp(port, "127.0.0.1", connect_timeout_ms);
    };
    service::RetryPolicy policy;
    policy.max_retries = f.count("retries", 0);
    policy.base_ms = f.count("retry-base-ms", 10);
    policy.seed = f.seed("retry-seed", 1);
    const service::CallOutcome outcome = service::call_with_retry(connect, body, policy);
    const std::string& response = outcome.body;
    const experiment::Json j = experiment::Json::parse(response);
    std::printf("%s\n", response.c_str());
    const experiment::Json* ok = j.find("ok");
    return (ok != nullptr && ok->is_bool() && ok->as_bool()) ? 0 : 1;
}

void usage() {
    std::printf(
        "hapctl — HAP traffic-model toolkit (SIGCOMM '93 reproduction)\n\n"
        "  hapctl analyze   [model flags]            analytic G/M/1 delay\n"
        "  hapctl solve0    [model flags] [--zmax N] exact truncated solve\n"
        "  hapctl simulate  [model flags] [--horizon T --seed S --buffer K]\n"
        "  hapctl fit       --trace FILE [--duty D --burst R]\n"
        "  hapctl admission [model flags] --budget T\n"
        "  hapctl sweep     [model flags] [--service-grid SPEC --lambda-grid SPEC]\n"
        "                   [--reps N --threads N --horizon T --json FILE --metrics]\n"
        "                   [--analytic [--warm-start 0|1 --trunc-tol E --tol E]]\n"
        "                   [--checkpoint FILE [--resume]] [--fault-inject SPEC]\n"
        "                   [--budget-iters N --budget-states N --budget-wall-ms T]\n"
        "                   (SPEC: \"a,b,c\" or \"lo:hi:step\"; --analytic runs\n"
        "                   Solution 0 as a warm-started continuation chain,\n"
        "                   one point at a time, so it rejects --threads;\n"
        "                   failures are contained per job into a \"failures\"\n"
        "                   block, and --checkpoint/--resume make sweeps\n"
        "                   crash-safe — see README \"Fault tolerance & resume\")\n"
        "  hapctl metrics-dump [model flags] [--horizon T --reps N --solve0]\n"
        "                   solver-telemetry JSON document (see DESIGN.md 4e)\n"
        "  hapctl serve     [--socket PATH | --port N] [--threads N]\n"
        "                   [--cache FILE] [--tol E --trunc-tol E --sweeps N\n"
        "                   --zmax N --timeout-ms T\n"
        "                   --budget-iters N --budget-states N --budget-wall-ms T]\n"
        "                   [--max-conns N --max-pending N --retry-after-ms T\n"
        "                   --degrade-depth N --shed-depth N --approx-dist D\n"
        "                   --clamp-iters N]  resident capacity-planning daemon\n"
        "                   (hapd): answers solve/admission queries over a\n"
        "                   persistent cache with nearest-neighbor warm starts;\n"
        "                   sheds/degrades under overload (README \"Overload\n"
        "                   behavior\"); prints \"READY <endpoint>\" when accepting\n"
        "  hapctl query     [--socket PATH | --port N] [--op solve|admission|\n"
        "                   ping|metrics|shutdown] [model flags] [--budget T]\n"
        "                   [--id S] [--deadline-ms T --connect-timeout-ms T\n"
        "                   --retries N --retry-base-ms T --retry-seed S]\n"
        "                   one query against a running hapd; prints the JSON\n"
        "                   response, retrying overloaded/lost calls with\n"
        "                   deterministic backoff (README \"Serving queries\")\n\n"
        "model flags (defaults = paper baseline):\n"
        "  --lambda 0.0055 --mu 0.001 --lambda1 0.01 --mu1 0.01 --l 5\n"
        "  --lambda2 0.1 --m 3 --service 20 [--max-users N --max-apps N]\n");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const hap::cli::Flags flags(argc, argv, 2);
        if (cmd == "analyze") return cmd_analyze(flags);
        if (cmd == "solve0") return cmd_solve0(flags);
        if (cmd == "simulate") return cmd_simulate(flags);
        if (cmd == "fit") return cmd_fit(flags);
        if (cmd == "admission") return cmd_admission(flags);
        if (cmd == "sweep") return cmd_sweep(flags);
        if (cmd == "metrics-dump") return cmd_metrics_dump(flags);
        if (cmd == "serve") return cmd_serve(flags);
        if (cmd == "query") return cmd_query(flags);
        usage();
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "hapctl %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
}
