// Resident worker pool for long-lived services.
//
// parallel_for (the batch primitive) spawns workers per call and joins them
// before returning — the right shape for a sweep, the wrong one for a daemon
// that must keep threads alive across an unbounded stream of connections.
// Pool is the resident counterpart: a fixed set of workers draining a FIFO
// job queue until shutdown. Like parallel_for it lives in src/parallel/, the
// single sanctioned thread-spawning layer (tools/haplint enforces this), so
// the repo still has one place to reason about concurrency primitives.
//
// Scheduling is deliberately dumb (one mutex, one condition variable, FIFO):
// jobs here are whole client connections or batched solves, i.e. milliseconds
// to seconds of work, so queue overhead is irrelevant. Determinism is NOT
// promised at this layer — a service answers each query from a deterministic
// solve, but the interleaving of independent connections is inherently
// schedule-dependent (DESIGN.md §4j gives the per-query argument).
//
// A job that throws is contained: the exception is swallowed after invoking
// the pool's error hook (if any); the worker survives and takes the next job.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>

namespace hap::parallel {

class Pool {
public:
    // Spawns `threads` workers (at least 1). `on_error` (optional) is invoked
    // from the worker with the exception a job escaped with; it must not
    // throw. No getenv here: sizing is phase-0 configuration owned by the
    // front end (see env_threads()).
    //
    // `max_queue` bounds the PENDING job queue (jobs submitted but not yet
    // started): a submit that would push the queue past the bound is refused
    // instead of growing it without limit — the backpressure signal an
    // overloaded service turns into an explicit shed frame. 0 = unbounded
    // (the pre-PR-10 behavior).
    explicit Pool(std::size_t threads,
                  std::function<void(std::exception_ptr)> on_error = nullptr,
                  std::size_t max_queue = 0);

    // Drains nothing: pending jobs that have not started are dropped; jobs
    // already running are joined. Callers that need every submitted job to
    // finish must track completion themselves (the service's connection
    // handlers do, via their own shutdown handshake).
    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    // Enqueue a job. Returns false (job not enqueued) after shutdown/drain
    // began or when the bounded queue is full.
    bool submit(std::function<void()> job);

    // Ask workers to stop after their current job, then join them. Pending
    // jobs that never started are dropped. Idempotent.
    void shutdown();

    // Graceful counterpart to shutdown(): refuse new submissions, run every
    // already-enqueued job to completion, then join the workers. In-flight
    // queries get their answers instead of vanishing with the queue
    // (Hapd::stop() uses this). Idempotent; safe to follow with shutdown().
    void drain();

    std::size_t threads() const noexcept;

private:
    struct Impl;
    Impl* impl_;  // pimpl: keeps <thread>/<condition_variable> out of the header
};

}  // namespace hap::parallel
