#include "experiment/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "experiment/faultinject.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hap::experiment {

namespace {

// Per-replication telemetry, recorded only when metrics are enabled: the
// deterministic fields (events as "iterations") plus wall time, a timing
// histogram, and a progress counter/gauge for long sweeps.
void record_replication(const std::string& label, std::uint64_t run_id,
                        ReplicationResult& r, double seconds, std::uint64_t done,
                        std::uint64_t total) {
    r.wall_time_s = seconds;
    obs::MetricsRegistry& reg = obs::registry();
    obs::SolverTelemetry t;
    t.solver = "replication";
    t.label = label;
    t.run_id = run_id;
    t.iterations = r.events;
    t.wall_time_s = seconds;
    t.converged = true;
    reg.record_solver(std::move(t));
    reg.observe("experiment.replication_s", seconds);
    reg.add_counter("experiment.replications");
    reg.set_gauge("experiment.jobs_pending",
                  static_cast<double>(total - std::min(done, total)));
}

// The nan@ fault hook: overwrite the delay accumulator's mean with a quiet
// NaN through the state round-trip API, exactly as a numerically broken
// simulator would hand it back. validate_replication must catch this.
void poison_delay(ReplicationResult& r) {
    stats::OnlineStats::State st = r.delay.state();
    st.mean = std::numeric_limits<double>::quiet_NaN();
    r.delay = stats::OnlineStats::from_state(st);
}

// Per-job slots of one pass of the job loop: runs[s][rep] is valid iff
// ok[offsets[s] + rep]; failures are in job-index order.
struct JobSlots {
    std::vector<std::size_t> offsets;
    std::vector<std::vector<ReplicationResult>> runs;
    std::vector<char> ok;
    std::vector<FailureRecord> failures;
};

// The one replication job loop; every ExperimentRunner entry point is a view
// of its slots.
JobSlots run_jobs(const ExperimentRunner& runner, std::span<const Scenario> grid,
                  const ExperimentRunner::SimulateFn& simulate,
                  const ContainOptions& copts) {
    // Flatten (scenario, replication) into one job list so the pool stays
    // full even when single scenarios have fewer replications than threads.
    // Each job is its own fault domain: it either delivers a VALIDATED
    // replication or one FailureRecord — never a half-poisoned merge input —
    // and either outcome is checkpointed before the sweep moves on.
    JobSlots out;
    out.offsets.assign(grid.size() + 1, 0);
    for (std::size_t s = 0; s < grid.size(); ++s) {
        grid[s].validate();
        out.offsets[s + 1] = out.offsets[s] + grid[s].replications;
    }
    const std::vector<std::size_t>& offsets = out.offsets;
    const std::size_t total = offsets.back();
    out.runs.resize(grid.size());
    for (std::size_t s = 0; s < grid.size(); ++s)
        out.runs[s].resize(grid[s].replications);

    // Force the fault plan's one-time HAP_FAULT_INJECT parse NOW, on the
    // coordinating thread: the hooks below run inside pool workers, and
    // environment reads are phase-0 configuration that must never happen
    // after the pool has spawned (haplint env-after-spawn).
    (void)fault_plan();

    // Fixed per-job slots: no cross-thread ordering to reason about, and the
    // final failure list falls out in job-index order by construction. This
    // is also why no capability annotations appear here: workers share no
    // mutex-guarded state — `done` is a std::atomic and every other write
    // lands in a slot owned by exactly one job index. The mutex-guarded
    // structures workers DO touch (metrics registry, checkpoint writer,
    // parallel_for's error sink) carry their annotations at the definition.
    out.ok.assign(total, 0);
    std::vector<FailureRecord> slots(total);

    const bool metrics = obs::enabled();
    std::atomic<std::uint64_t> done{0};
    runner.parallel_for(total, [&](std::size_t job) {
        // Scenarios are few; a linear scan beats binary search bookkeeping.
        std::size_t s = 0;
        while (job >= offsets[s + 1]) ++s;
        const std::size_t rep = job - offsets[s];
        const Scenario& sc = grid[s];
        ReplicationResult& slot = out.runs[s][rep];
        const auto fail = [&](std::string stage, std::string what) {
            FailureRecord& f = slots[job];
            f.scenario = sc.name;
            f.run_id = rep;
            f.job_index = job;
            f.master_seed = sc.master_seed;
            f.component = sc.component();
            f.stage = std::move(stage);
            f.what = std::move(what);
        };

        // Resume: a checkpointed outcome — success or failure — is restored
        // verbatim instead of re-running the job. It is already in the
        // checkpoint file, so it is not re-recorded either.
        if (copts.resume != nullptr) {
            if (const CheckpointEntry* e = copts.resume->find(sc.name, rep)) {
                if (e->failed) {
                    fail(e->stage, e->what);
                } else {
                    slot = e->result;
                    out.ok[job] = 1;
                }
                return;
            }
        }

        const char* stage = "simulate";
        try {
            maybe_throw_injected(sc.name, rep);
            using Clock = std::chrono::steady_clock;
            const Clock::time_point t0 = metrics ? Clock::now() : Clock::time_point{};
            sim::RandomStream rng = sc.stream(rep);
            ReplicationResult r = simulate(sc, rep, rng);
            if (fault_fires(FaultKind::Nan, sc.name, rep)) poison_delay(r);
            stage = "validate";
            validate_replication(r);
            slot = std::move(r);
            out.ok[job] = 1;
            if (metrics) {
                record_replication(sc.name, rep, slot, obs::seconds_since(t0),
                                   done.fetch_add(1) + 1, total);
            }
            if (copts.checkpoint != nullptr)
                copts.checkpoint->record_result(sc.name, rep, slot);
        } catch (const std::exception& e) {
            fail(stage, e.what());
            if (metrics) obs::registry().add_counter("experiment.failures");
            if (copts.checkpoint != nullptr)
                copts.checkpoint->record_failure(sc.name, rep, stage, e.what());
        }
    });

    // A job that returned without an ok flag left exactly one FailureRecord.
    for (std::size_t job = 0; job < total; ++job)
        if (!out.ok[job]) out.failures.push_back(std::move(slots[job]));
    return out;
}

// The strict views' gate: any failed job is an error, reported with the
// failure count and the first failure in job-index order.
void require_no_failures(const std::vector<FailureRecord>& failures, const char* who) {
    if (failures.empty()) return;
    const FailureRecord& f = failures.front();
    throw std::runtime_error(std::string(who) + ": " + std::to_string(failures.size()) +
                             " job(s) failed; first " + f.scenario + "#" +
                             std::to_string(f.run_id) + " (" + f.stage + "): " + f.what);
}

}  // namespace

ExperimentRunner::ExperimentRunner(std::size_t threads)
    : threads_(threads > 0 ? threads : parallel::env_threads()) {}

ReplicationResult ExperimentRunner::simulate_hap(const Scenario& sc,
                                                 std::uint64_t run_id,
                                                 sim::RandomStream& rng) {
    return ReplicationResult::from(
        run_id, core::simulate_hap_queue(sc.params, rng, sc.sim_options()), sc.warmup);
}

std::vector<ReplicationResult> ExperimentRunner::replicate(
    const Scenario& sc, const SimulateFn& simulate) const {
    JobSlots slots = run_jobs(*this, {&sc, 1}, simulate, ContainOptions());
    require_no_failures(slots.failures, "replicate");
    return std::move(slots.runs.front());
}

MergedResult ExperimentRunner::run(const Scenario& sc, const SimulateFn& simulate) const {
    return MergedResult::merge(replicate(sc, simulate));
}

std::vector<MergedResult> ExperimentRunner::run_all(const std::vector<Scenario>& grid,
                                                    const SimulateFn& simulate) const {
    const JobSlots slots = run_jobs(*this, grid, simulate, ContainOptions());
    require_no_failures(slots.failures, "run_all");
    std::vector<MergedResult> merged;
    merged.reserve(grid.size());
    for (const auto& r : slots.runs) merged.push_back(MergedResult::merge(r));
    return merged;
}

ContainedSweep ExperimentRunner::run_all_contained(
    const std::vector<Scenario>& grid, const ContainOptions& copts) const {
    return run_all_contained(grid, &ExperimentRunner::simulate_hap, copts);
}

ContainedSweep ExperimentRunner::run_all_contained(
    const std::vector<Scenario>& grid, const SimulateFn& simulate,
    const ContainOptions& copts) const {
    JobSlots slots = run_jobs(*this, grid, simulate, copts);
    const std::size_t total = slots.offsets.back();
    ContainedSweep out;
    out.failures = std::move(slots.failures);
    if (total > 0 && out.failures.size() == total) {
        throw std::runtime_error("run_all_contained: all " + std::to_string(total) +
                                 " jobs failed; first: " + out.failures.front().what);
    }

    out.merged.reserve(grid.size());
    out.survivors.reserve(grid.size());
    for (std::size_t s = 0; s < grid.size(); ++s) {
        std::vector<ReplicationResult> alive;
        alive.reserve(slots.runs[s].size());
        for (std::size_t rep = 0; rep < slots.runs[s].size(); ++rep) {
            if (slots.ok[slots.offsets[s] + rep])
                alive.push_back(std::move(slots.runs[s][rep]));
        }
        out.survivors.push_back(alive.size());
        out.merged.push_back(MergedResult::merge(alive));
    }
    return out;
}

}  // namespace hap::experiment
