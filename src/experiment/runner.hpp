// Parallel replication engine. Independent replications (or grid cells of a
// parameter sweep) fan out over the shared parallel::parallel_for pool; every
// replication draws from a counter-based substream (sim::substream_seed), so
// the numbers — and the merged point estimates, which are combined in run_id
// order — are bit-identical whether the pool has 1 thread or 64.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "experiment/checkpoint.hpp"
#include "experiment/failure.hpp"
#include "experiment/result.hpp"
#include "experiment/scenario.hpp"
#include "parallel/parallel_for.hpp"

namespace hap::experiment {

// Fault-contained sweep options: an optional append-mode checkpoint (every
// finished job is persisted before the sweep moves on) and an optional
// resume snapshot (jobs already present are restored, not re-run).
struct ContainOptions {
    CheckpointWriter* checkpoint = nullptr;
    const CheckpointData* resume = nullptr;
};

// Result of a contained sweep: merged results in grid order (each merged
// over the SURVIVING replications only, in run_id order), the per-scenario
// survivor counts, and every failure ordered by flattened job index.
struct ContainedSweep {
    std::vector<MergedResult> merged;
    std::vector<std::size_t> survivors;
    std::vector<FailureRecord> failures;
};

class ExperimentRunner {
public:
    // threads == 0 picks parallel::env_threads().
    explicit ExperimentRunner(std::size_t threads = 0);

    std::size_t threads() const noexcept { return threads_; }

    // Run fn(i) for every i in [0, n) on the pool; blocks until all jobs
    // finish. The calling thread participates. A throwing job never stops the
    // others: every job runs, every exception is captured, and a
    // parallel::ParallelForError carrying all of them — ordered by job index —
    // is thrown after the pool drains.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) const {
        parallel::parallel_for(threads_, n, fn);
    }

    // One replication: given the scenario, the run id, and that run's
    // deterministic stream, produce a summary.
    using SimulateFn = std::function<ReplicationResult(
        const Scenario&, std::uint64_t run_id, sim::RandomStream& rng)>;

    // The default simulator: core::simulate_hap_queue on Scenario::params.
    static ReplicationResult simulate_hap(const Scenario& sc, std::uint64_t run_id,
                                          sim::RandomStream& rng);

    // Every entry point below drains the same fault-contained job loop: each
    // (scenario, replication) pair is one pool job, so small grids with many
    // replications still fill every thread; each job is its own fault domain
    // and its replication is validated (validate_replication) BEFORE it may
    // reach the merge. Results are in grid order, each merged in run_id order.
    //
    // replicate, run and run_all are the strict views: any failed job throws
    // std::runtime_error naming the failure count and the first failure
    // (scenario#rep, stage, text).

    // All replications of one scenario, in run_id order.
    std::vector<ReplicationResult> replicate(
        const Scenario& sc, const SimulateFn& simulate = &simulate_hap) const;

    MergedResult run(const Scenario& sc,
                     const SimulateFn& simulate = &simulate_hap) const;

    std::vector<MergedResult> run_all(const std::vector<Scenario>& grid,
                                      const SimulateFn& simulate = &simulate_hap) const;

    // The contained view: a failing job becomes one FailureRecord instead of
    // aborting the sweep, and each scenario is merged over its survivors.
    // Throws std::runtime_error only when EVERY job failed (nothing to
    // report).
    ContainedSweep run_all_contained(const std::vector<Scenario>& grid,
                                     const ContainOptions& copts = ContainOptions()) const;
    ContainedSweep run_all_contained(const std::vector<Scenario>& grid,
                                     const SimulateFn& simulate,
                                     const ContainOptions& copts = ContainOptions()) const;

private:
    std::size_t threads_;
};

}  // namespace hap::experiment
