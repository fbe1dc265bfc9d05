// Bottom-layer deterministic work-sharing primitive.
//
// parallel_for(threads, n, fn) runs fn(i) for every i in [0, n) on up to
// `threads` workers (the calling thread participates) and blocks until all
// jobs finish. The replication engine (experiment::ExperimentRunner) drains
// its work through it. Threads are spawned only in src/parallel/ — this
// batch primitive, the resident service Pool (pool.hpp) and the lattice
// sweep team (team.hpp) — so the repo's determinism contract, results
// bit-identical at any thread count, has one thread layer to reason about.
// The primitive itself promises: every job runs exactly once, a throwing
// job never stops the others, and the collected failure set is ordered by
// job index (deterministic for any schedule).
//
// This module sits BELOW experiment/service and depends on nothing but the
// standard library.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace hap::parallel {

// The CPUs this process may run on (its affinity mask, as `taskset` sets
// it), ascending; empty when the mask cannot be read.
std::vector<int> usable_cpus();

// Worker count: HAP_BENCH_THREADS if set and positive, else the number of
// usable CPUs (the hardware concurrency if the mask cannot be read; at
// least 1).
std::size_t env_threads();

// One failed job of a parallel_for: the job index and the exception it threw.
struct JobError {
    std::size_t index = 0;
    std::exception_ptr error;
};

// Thrown by parallel_for when jobs fail. EVERY failure is kept, ordered by
// job index (deterministic for any thread count); what() reports the count
// and the first failure's text. Derives from std::runtime_error so callers
// that only ever expected "the one exception" still catch it.
class ParallelForError : public std::runtime_error {
public:
    explicit ParallelForError(std::vector<JobError> errors);

    const std::vector<JobError>& errors() const noexcept { return errors_; }

private:
    static std::string describe(const std::vector<JobError>& errors);

    std::vector<JobError> errors_;
};

// Run fn(i) for every i in [0, n) on min(threads, n) workers; threads == 0
// picks env_threads(). Jobs are claimed from an atomic counter (work
// stealing), so the ASSIGNMENT of jobs to threads is schedule-dependent —
// callers that need determinism must make each job's EFFECT independent of
// which thread runs it (disjoint output slots, order-free reductions).
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace hap::parallel
