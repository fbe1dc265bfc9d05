// hapd — the resident HAP capacity-planning service (ROADMAP item 4,
// DESIGN.md §4j).
//
// One Hapd instance owns a listening socket (Unix-domain or loopback TCP), a
// resident parallel::Pool whose workers each handle one client connection at
// a time, and a PointCache of solved operating points. The query path per
// solve request:
//
//   exact cache hit  -> the stored result bytes spliced into the reply
//   miss             -> continuation warm start from the family's nearest
//                       solved neighbor (run_analytic_sweep seed, PR 4)
//   no neighbor      -> cold solve, capped by max_sweeps and max_states,
//                       with the full fallback chain
//
// Concurrent misses in one family coalesce under SolveScheduler
// (scheduler.hpp), the socket-free owner of the overload ladder, batching and
// deadline claims: the first miss leads, answering each round of pending
// points, sorted by the continuation coordinate, from ONE warm-started
// run_analytic_sweep chain; later arrivals wait for the next round or their
// deadline. Admission requests (the shared core::AdmissionQuery tuple)
// answer from Solution 2 and cache under their own key.
//
// Observability: every stage counts into the obs metrics registry
// (hapd.cache.hits/misses — one per solve/admission query, so they sum to
// hapd.queries.solve + hapd.queries.admission — hapd.solve.warm/cold/
// degraded/failed, hapd.batch.rounds/coalesced/followers/late_hits (a
// leader's race re-check finding a point already cached), hapd.overload.*,
// hapd.protocol.errors, latency histograms, and from PointCache the
// hapd.cache.state_bytes gauge — the retained warm-start lattices' bytes,
// set at start and on every insert — and the hapd.cache.states_dropped counter of states
// its family cap or byte budget evicted) and the "metrics" op serves the
// registry as the hap.obs.metrics/v1 document plus a "cache" object (size,
// loaded, persist_errors, states: the retained warm-start states).
//
// The daemon never prints: diagnostics go through the optional log callback
// (hapctl wires it to stdout; tests capture it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "service/cache.hpp"
#include "service/protocol.hpp"

namespace hap::service {

struct ServeOptions {
    // Transport: a Unix socket path, or (when empty) loopback TCP on `port`
    // (0 = kernel-assigned ephemeral port, resolved via Hapd::port()).
    std::string socket_path;
    int port = 0;

    std::size_t threads = 4;       // connection-handler workers (min 1)
    std::string cache_path;        // persistent cache file; empty = memory-only

    // Solver configuration shared by every query (phase-0; never read from
    // the environment here). max_states caps a solve's box
    // (Solution0Options::max_states; 0 = none).
    double tol = 1e-7;
    double trunc_tol = 1e-9;
    std::size_t max_sweeps = 8000;
    std::size_t max_states = 0;
    std::size_t zmax = 0;

    // A connection must deliver a complete frame at least every
    // recv_timeout_ms or it is dropped (and counted in hapd.conn.timeouts).
    // One deadline covers both the idle client and the slowloris client that
    // dribbles a byte at a time — progress inside a frame does NOT reset it.
    int recv_timeout_ms = 30000;

    // --- Overload governor & degradation ladder (PR 10, DESIGN.md §4l) ---
    // Hard cap on admitted connections (being served + waiting for a
    // worker). 0 = threads + max_pending. A connection past the cap is
    // answered one "overloaded" frame carrying retry_after_ms and closed —
    // an explicit early drop instead of silent accept-backlog growth.
    std::size_t max_connections = 0;
    // Bound on the pending-connection queue (admitted, no worker yet); this
    // is the resident pool's bounded job queue.
    std::size_t max_pending = 16;
    // Retry hint carried in every shed frame. A fixed number from config,
    // never a clock read, so shed responses replay byte-identically.
    std::uint64_t retry_after_ms = 50;
    // Degradation ladder thresholds, measured in concurrently queued/solving
    // solve-miss requests. A miss arriving at depth > degrade_depth answers
    // from the nearest cached family neighbor within approx_rel_distance
    // (quality "approx", with the relative distance reported) or, failing
    // that, solves at min(max_sweeps, clamp_sweeps) sweeps (quality
    // "clamped", result not cached; clamp_sweeps 0 = no clamp); at depth >
    // shed_depth it is shed with an overloaded frame.
    // 0 = derived from threads: degrade = threads, shed = 4 * threads.
    std::size_t degrade_depth = 0;
    std::size_t shed_depth = 0;
    double approx_rel_distance = 0.05;
    std::size_t clamp_sweeps = 250;

    std::function<void(const std::string&)> log;  // optional diagnostics sink
};

class Hapd {
public:
    explicit Hapd(ServeOptions opts);
    ~Hapd();  // calls stop()

    Hapd(const Hapd&) = delete;
    Hapd& operator=(const Hapd&) = delete;

    // Bind, listen, and start the worker pool. Throws std::runtime_error on
    // socket errors (path too long, port in use, ...).
    void start();

    // Block until a client's shutdown op (or stop()) ends the serve loop.
    void wait();

    // Stop accepting and DRAIN: in-flight requests finish and get their
    // replies (completed solves reach the cache file), queued connections get
    // an explicit shutting-down error, then the pool joins.
    // Idempotent; must be called from outside the pool (the owner thread).
    void stop();

    // Resolved TCP port (TCP mode, after start()).
    int port() const noexcept;
    // Human-readable endpoint, e.g. "unix:/tmp/hapd.sock" or "tcp:127.0.0.1:7070".
    std::string endpoint() const;

    const PointCache& cache() const;

private:
    struct Impl;
    Impl* impl_;
};

}  // namespace hap::service
