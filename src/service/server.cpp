#include "service/server.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "experiment/analytic.hpp"
#include "experiment/faultinject.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/pool.hpp"

namespace hap::service {

namespace {

using experiment::Json;

void count(const char* name, std::uint64_t delta = 1) {
    if (obs::enabled()) obs::registry().add_counter(name, delta);
}

// Full-buffer send; EINTR retried, SIGPIPE suppressed (a vanished client is
// an ordinary condition for a daemon, not a process-killing event).
bool send_all(int fd, std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void set_io_timeouts(int fd, int timeout_ms) {
    if (timeout_ms <= 0) return;
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Json solve_result_json(const core::Solution0Result& s0) {
    Json r = Json::object();
    r.set("mean_delay", Json::number(s0.mean_delay));
    r.set("utilization", Json::number(s0.utilization));
    r.set("sigma", Json::number(s0.sigma));
    r.set("mean_messages", Json::number(s0.mean_messages));
    r.set("mean_rate", Json::number(s0.mean_rate));
    r.set("mean_users", Json::number(s0.mean_users));
    r.set("mean_apps", Json::number(s0.mean_apps));
    r.set("truncation_mass", Json::number(s0.truncation_mass));
    r.set("states", Json::integer(static_cast<std::uint64_t>(s0.states)));
    r.set("sweeps", Json::integer(static_cast<std::uint64_t>(s0.sweeps)));
    r.set("converged", Json::boolean(s0.converged));
    r.set("warm_started", Json::boolean(s0.warm_started));
    return r;
}

using Clock = std::chrono::steady_clock;

// One client's claim on a (possibly shared) solve. Fields other than `done`
// are written by the batch leader BEFORE done is set under the solve mutex,
// so a woken waiter reads them race-free. `claims` and `in_pending` are
// deadline bookkeeping, only ever touched under the solve mutex: claims
// counts clients still waiting on this waiter, and in_pending is true while
// the request sits in the pending map (a leader has not yet taken it). A
// request whose every claimant times out while still pending is removed
// without spending a solve.
struct Waiter {
    bool done = false;
    std::string source;   // "warm" | "cold"
    std::string quality;  // "ok" | "degraded" | "clamped"
    std::string error;    // non-empty = solve failed
    std::size_t batch = 1;
    Json result;
    std::size_t claims = 0;
    bool in_pending = true;
};

struct PendingReq {
    std::string key;
    double coord = 0.0;
    ModelSpec model;
    std::shared_ptr<Waiter> waiter;
};

}  // namespace

struct Hapd::Impl {
    ServeOptions opts;
    PointCache point_cache;

    int listen_fd = -1;
    int resolved_port = 0;
    std::atomic<bool> stopping{false};
    std::unique_ptr<parallel::Pool> pool;

    // Effective governor thresholds (0-valued options resolved); set once in
    // Hapd::start() before any worker exists, read-only afterwards.
    std::size_t max_conns_eff = 0;
    std::size_t degrade_depth_eff = 0;
    std::size_t shed_depth_eff = 0;

    // Open client connections, so stop() can unblock handlers parked in recv.
    std::mutex conn_mutex;
    std::set<int> conns;

    // wait()/shutdown-op handshake.
    std::mutex stop_mutex;
    std::condition_variable stop_cv;
    bool stop_requested = false;

    // Batching state: per-bucket pending queues and the in-flight leader set.
    // A bucket is a family, or family + ";clamped" — clamped misses batch
    // separately so a clamp-budget chain never feeds a full-budget one.
    std::mutex solve_mutex;
    std::condition_variable solve_cv;
    std::map<std::string, std::vector<PendingReq>> pending;
    std::set<std::string> in_flight;
    // Solve-miss requests currently queued or solving (the overload ladder's
    // depth measure); guarded by solve_mutex.
    std::size_t solve_depth = 0;

    explicit Impl(ServeOptions o)
        : opts(std::move(o)), point_cache(opts.cache_path) {}

    void log(const std::string& line) {
        if (opts.log) opts.log(line);
    }

    void request_stop() {
        stopping.store(true);
        {
            const std::lock_guard<std::mutex> lock(stop_mutex);
            stop_requested = true;
        }
        stop_cv.notify_all();
    }

    // --- query handlers ----------------------------------------------------

    void dec_depth() {
        const std::lock_guard<std::mutex> lock(solve_mutex);
        --solve_depth;
    }

    std::string handle_solve(const Request& req, Clock::time_point arrival) {
        const obs::ScopedTimer timer("hapd.latency.solve");
        count("hapd.queries.solve");
        const std::string key = solve_key(req.model);
        if (auto hit = point_cache.lookup(key)) {
            count("hapd.cache.hits");
            Json payload = Json::object();
            payload.set("source", Json::string("hit"));
            payload.set("quality", Json::string(hit->quality));
            payload.set("result", std::move(hit->result));
            return ok_response(req.id, payload);
        }
        count("hapd.cache.misses");

        // Deadline is relative to frame receipt (protocol.hpp contract).
        const Clock::time_point deadline =
            req.deadline_ms > 0
                ? arrival + std::chrono::milliseconds(req.deadline_ms)
                : Clock::time_point::max();

        // Overload ladder (DESIGN.md §4l): this miss holds a depth slot from
        // here until it is answered; the depth at entry picks the rung.
        bool clamped = false;
        {
            const std::lock_guard<std::mutex> lock(solve_mutex);
            ++solve_depth;
            if (obs::enabled())
                obs::registry().set_gauge_max("hapd.overload.depth_max",
                                              static_cast<double>(solve_depth));
            if (solve_depth > shed_depth_eff) {
                --solve_depth;
                count("hapd.overload.shed");
                return overloaded_response(req.id, opts.retry_after_ms,
                                           "solve queue is full; retry later");
            }
            clamped = solve_depth > degrade_depth_eff;
        }
        if (clamped) {
            // Approx rung first: a cached family neighbor inside the distance
            // bound answers without spending any solve at all.
            auto near = point_cache.nearest_result(solve_family(req.model),
                                                   req.model.lambda);
            if (near.has_value()) {
                const double denom = std::max(std::abs(req.model.lambda), 1e-300);
                const double dist = std::abs(near->coord - req.model.lambda) / denom;
                if (dist <= opts.approx_rel_distance) {
                    dec_depth();
                    count("hapd.overload.approx");
                    Json payload = Json::object();
                    payload.set("source", Json::string("approx"));
                    payload.set("quality", Json::string("approx"));
                    payload.set("distance", Json::number(dist));
                    payload.set("result", std::move(near->result));
                    return ok_response(req.id, payload);
                }
            }
            count("hapd.overload.clamped");
        }

        const std::shared_ptr<Waiter> w = enqueue_and_solve(req, deadline, clamped);
        dec_depth();
        if (w == nullptr) {
            count("hapd.overload.deadline_exceeded");
            return deadline_exceeded_response(req.id);
        }
        if (!w->error.empty()) return error_response(req.id, "solve-failed", w->error);
        Json payload = Json::object();
        payload.set("source", Json::string(w->source));
        payload.set("quality", Json::string(w->quality));
        if (w->batch > 1)
            payload.set("batch", Json::integer(static_cast<std::uint64_t>(w->batch)));
        payload.set("result", std::move(w->result));
        return ok_response(req.id, payload);
    }

    std::string handle_admission(const Request& req) {
        const obs::ScopedTimer timer("hapd.latency.admission");
        count("hapd.queries.admission");
        const std::string key = admission_key(req.model, req.delay_budget);
        if (auto hit = point_cache.lookup(key)) {
            count("hapd.cache.hits");
            Json payload = Json::object();
            payload.set("source", Json::string("hit"));
            payload.set("quality", Json::string(hit->quality));
            payload.set("result", std::move(hit->result));
            return ok_response(req.id, payload);
        }
        count("hapd.cache.misses");
        const core::AdmissionOutcome o =
            core::evaluate_admission(req.model.params(), req.admission_query());
        Json r = Json::object();
        r.set("admit", Json::boolean(o.admit));
        r.set("stable", Json::boolean(o.stable));
        r.set("mean_rate", Json::number(o.mean_rate));
        r.set("sigma", Json::number(o.sigma));
        if (o.stable) r.set("mean_delay", Json::number(o.mean_delay));

        CachedPoint cp;
        cp.key = key;
        cp.kind = "admission";
        cp.quality = "ok";
        cp.result = r;
        point_cache.insert(std::move(cp));

        Json payload = Json::object();
        payload.set("source", Json::string("cold"));
        payload.set("quality", Json::string("ok"));
        payload.set("result", std::move(r));
        return ok_response(req.id, payload);
    }

    std::string handle_metrics(const Request& req) {
        count("hapd.queries.metrics");
        Json payload = Json::object();
        const obs::MetricsSnapshot snap = obs::registry().snapshot();
        Json counters = Json::object();
        for (const auto& [name, value] : snap.counters)
            counters.set(name, Json::integer(value));
        payload.set("counters", std::move(counters));
        Json cache_info = Json::object();
        cache_info.set("size",
                       Json::integer(static_cast<std::uint64_t>(point_cache.size())));
        cache_info.set("loaded",
                       Json::integer(static_cast<std::uint64_t>(point_cache.loaded())));
        cache_info.set("persist_errors",
                       Json::integer(
                           static_cast<std::uint64_t>(point_cache.persist_errors())));
        payload.set("cache", std::move(cache_info));
        payload.set("text", Json::string(obs::registry().report()));
        return ok_response(req.id, payload);
    }

    // Returns (response body, shutdown-after-send). `arrival` is when the
    // request's complete frame was received — the deadline_ms epoch.
    std::pair<std::string, bool> handle_request(const std::string& body,
                                                Clock::time_point arrival) {
        const obs::ScopedTimer timer("hapd.latency.request");
        count("hapd.queries");
        Request req;
        try {
            req = parse_request(body);
        } catch (const ProtocolError& e) {
            count("hapd.protocol.errors");
            return {error_response("", "bad-request", e.what()), false};
        }
        try {
            switch (req.op) {
                case Op::Ping: {
                    count("hapd.queries.ping");
                    Json payload = Json::object();
                    payload.set("pong", Json::boolean(true));
                    return {ok_response(req.id, payload), false};
                }
                case Op::Solve:
                    return {handle_solve(req, arrival), false};
                case Op::Admission:
                    return {handle_admission(req), false};
                case Op::Metrics:
                    return {handle_metrics(req), false};
                case Op::Shutdown: {
                    count("hapd.queries.shutdown");
                    Json payload = Json::object();
                    payload.set("stopping", Json::boolean(true));
                    return {ok_response(req.id, payload), true};
                }
            }
        } catch (const std::exception& e) {
            count("hapd.internal.errors");
            return {error_response(req.id, "internal", e.what()), false};
        }
        return {error_response(req.id, "internal", "unreachable op"), false};
    }

    // --- batched solve path ------------------------------------------------

    // Withdraw a pending request whose every claimant gave up (solve_mutex held).
    void remove_pending(const std::string& bucket, const std::shared_ptr<Waiter>& w) {
        const auto it = pending.find(bucket);
        if (it == pending.end()) return;
        std::vector<PendingReq>& vec = it->second;
        vec.erase(std::remove_if(vec.begin(), vec.end(),
                                 [&](const PendingReq& p) { return p.waiter == w; }),
                  vec.end());
        if (vec.empty()) pending.erase(it);
    }

    // Returns the answered waiter, or nullptr when the request's deadline
    // expired while it was queued behind an in-flight batch leader.
    std::shared_ptr<Waiter> enqueue_and_solve(const Request& req,
                                              Clock::time_point deadline,
                                              bool clamped) {
        const std::string family = solve_family(req.model);
        const std::string bucket = clamped ? family + ";clamped" : family;
        const std::string key = solve_key(req.model);
        std::unique_lock<std::mutex> lock(solve_mutex);
        std::shared_ptr<Waiter> w;
        for (const PendingReq& p : pending[bucket]) {
            if (p.key == key) {
                w = p.waiter;  // identical pending query: share one solve
                break;
            }
        }
        if (w == nullptr) {
            w = std::make_shared<Waiter>();
            pending[bucket].push_back(PendingReq{key, req.model.lambda, req.model, w});
        }
        w->claims += 1;
        if (in_flight.count(bucket) != 0) {
            count("hapd.batch.followers");
            bool answered = true;
            if (deadline == Clock::time_point::max()) {
                solve_cv.wait(lock, [&] { return w->done; });
            } else {
                answered = solve_cv.wait_until(lock, deadline, [&] { return w->done; });
            }
            if (!answered) {
                // Give up the claim; if nobody else wants this point and no
                // leader has taken it yet, withdraw it so no solve is spent.
                w->claims -= 1;
                if (w->claims == 0 && w->in_pending) remove_pending(bucket, w);
                return nullptr;
            }
            return w;
        }
        in_flight.insert(bucket);
        for (;;) {
            const auto it = pending.find(bucket);
            if (it == pending.end() || it->second.empty()) {
                if (it != pending.end()) pending.erase(it);
                break;
            }
            std::vector<PendingReq> batch = std::move(it->second);
            pending.erase(it);
            for (const PendingReq& p : batch) p.waiter->in_pending = false;
            lock.unlock();
            const std::vector<std::shared_ptr<Waiter>> finished =
                solve_batch(family, clamped, std::move(batch));
            lock.lock();
            for (const std::shared_ptr<Waiter>& fin : finished) fin->done = true;
            solve_cv.notify_all();
        }
        in_flight.erase(bucket);
        lock.unlock();
        solve_cv.notify_all();
        return w;
    }

    std::vector<std::shared_ptr<Waiter>> solve_batch(const std::string& family,
                                                     bool clamped,
                                                     std::vector<PendingReq> batch) {
        count("hapd.batch.rounds");
        // Deterministic grid: ascending continuation coordinate (key breaks
        // exact-coordinate ties, which can only be distinct bounds/shapes).
        std::stable_sort(batch.begin(), batch.end(),
                         [](const PendingReq& a, const PendingReq& b) {
                             return std::tie(a.coord, a.key) < std::tie(b.coord, b.key);
                         });
        struct Point {
            std::string key;
            double coord = 0.0;
            ModelSpec model;
            std::vector<std::shared_ptr<Waiter>> waiters;
        };
        std::vector<Point> points;
        for (PendingReq& p : batch) {
            if (!points.empty() && points.back().key == p.key) {
                points.back().waiters.push_back(std::move(p.waiter));
            } else {
                Point pt;
                pt.key = std::move(p.key);
                pt.coord = p.coord;
                pt.model = p.model;
                pt.waiters.push_back(std::move(p.waiter));
                points.push_back(std::move(pt));
            }
        }

        std::vector<std::shared_ptr<Waiter>> finished;
        const auto deliver = [&](Point& pt, const std::string& source,
                                 const std::string& quality, Json result,
                                 const std::string& error, std::size_t batch_size) {
            for (const std::shared_ptr<Waiter>& w : pt.waiters) {
                w->source = source;
                w->quality = quality;
                w->error = error;
                w->batch = batch_size;
                w->result = result;
                finished.push_back(w);
            }
        };

        // Deadline pre-filter: a point whose every claimant already timed out
        // while it was queued is dropped without spending a solve (each
        // claimant answered itself deadline_exceeded on wake-up).
        {
            const std::lock_guard<std::mutex> lock(solve_mutex);
            std::vector<Point> live;
            live.reserve(points.size());
            for (Point& pt : points) {
                bool claimed = false;
                for (const std::shared_ptr<Waiter>& w : pt.waiters) {
                    if (w->claims > 0) {
                        claimed = true;
                        break;
                    }
                }
                if (claimed) {
                    live.push_back(std::move(pt));
                } else {
                    count("hapd.overload.expired_points");
                    for (const std::shared_ptr<Waiter>& w : pt.waiters)
                        finished.push_back(w);
                }
            }
            points = std::move(live);
        }

        // A solve that raced us may have landed these keys already.
        std::vector<Point> todo;
        for (Point& pt : points) {
            if (auto hit = point_cache.lookup(pt.key)) {
                count("hapd.cache.hits");
                deliver(pt, "hit", hit->quality, std::move(hit->result), "", 1);
            } else {
                todo.push_back(std::move(pt));
            }
        }
        if (todo.empty()) return finished;
        if (todo.size() > 1) count("hapd.batch.coalesced", todo.size() - 1);

        // Chaos hook: stall@solve#ms holds the batch leader here — in_flight
        // held, followers queued — for the scripted duration. This is the
        // window the chaos harness uses to pile deterministic load behind one
        // solve and exercise every ladder rung.
        if (const auto stall =
                experiment::fault_value(experiment::FaultKind::Stall, "solve")) {
            count("hapd.solve.stalls");
            std::this_thread::sleep_for(std::chrono::milliseconds(*stall));
        }

        // Continuation chain over the batch, seeded from the family's nearest
        // solved neighbor (PR 4 warm-start machinery end to end).
        const std::optional<NearestState> seed =
            point_cache.nearest(family, todo.front().coord);

        experiment::AnalyticSweepOptions sweep;
        sweep.warm_start = true;
        sweep.adaptive = true;
        sweep.fallback = true;
        sweep.export_states = true;
        sweep.solver.tol = opts.tol;
        sweep.solver.trunc_tol = opts.trunc_tol;
        sweep.solver.max_sweeps = opts.max_sweeps;
        sweep.solver.max_messages = opts.zmax;
        sweep.solver.check_every = 10;
        sweep.solver.budget = clamped ? opts.clamp_budget : opts.budget;
        if (seed.has_value()) {
            sweep.seed = &seed->state;
            sweep.seed_coord = seed->coord;
        }

        std::vector<experiment::AnalyticPoint> grid;
        grid.reserve(todo.size());
        for (const Point& pt : todo) {
            experiment::AnalyticPoint ap;
            ap.name = pt.key;
            ap.params = pt.model.params();
            ap.coord = pt.coord;
            grid.push_back(std::move(ap));
        }

        std::vector<experiment::AnalyticPointResult> results;
        try {
            const obs::ScopedTimer timer("hapd.latency.sweep");
            results = experiment::run_analytic_sweep(grid, sweep, nullptr);
        } catch (const std::exception& e) {
            count("hapd.solve.failed", todo.size());
            for (Point& pt : todo) deliver(pt, "", "failed", Json(), e.what(), todo.size());
            return finished;
        }

        for (std::size_t i = 0; i < todo.size(); ++i) {
            Point& pt = todo[i];
            experiment::AnalyticPointResult& pr = results[i];
            if (pr.failed()) {
                count("hapd.solve.failed");
                deliver(pt, "", "failed", Json(), pr.error, todo.size());
                continue;
            }
            const bool warm = pr.s0.warm_started;
            count(warm ? "hapd.solve.warm" : "hapd.solve.cold");
            if (pr.quality == "degraded") count("hapd.solve.degraded");
            Json result = solve_result_json(pr.s0);

            if (!clamped) {
                // Clamped answers are deliberately NOT cached: a later
                // unloaded solve of the same point must run at full budget
                // and land the real answer (also keeps the cache file
                // byte-identical to a fault-free, unloaded run).
                CachedPoint cp;
                cp.key = pt.key;
                cp.family = family;
                cp.coord = pt.coord;
                cp.kind = "solve";
                cp.quality = pr.quality;
                cp.result = result;
                cp.state = std::move(pr.s0.state);
                point_cache.insert(std::move(cp));
            }

            deliver(pt, warm ? "warm" : "cold", clamped ? "clamped" : pr.quality,
                    std::move(result), "", todo.size());
        }
        return finished;
    }

    // --- transport ---------------------------------------------------------

    void open_socket() {
        if (!opts.socket_path.empty()) {
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            if (opts.socket_path.size() >= sizeof(addr.sun_path))
                throw std::runtime_error("hapd: socket path too long: " +
                                         opts.socket_path);
            listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (listen_fd < 0) throw std::runtime_error("hapd: cannot create socket");
            (void)::unlink(opts.socket_path.c_str());  // stale socket from a crash
            opts.socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
            if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
                ::close(listen_fd);
                listen_fd = -1;
                throw std::runtime_error("hapd: cannot bind " + opts.socket_path);
            }
        } else {
            listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (listen_fd < 0) throw std::runtime_error("hapd: cannot create socket");
            const int one = 1;
            (void)::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            addr.sin_port = htons(static_cast<std::uint16_t>(opts.port));
            if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
                ::close(listen_fd);
                listen_fd = -1;
                throw std::runtime_error("hapd: cannot bind loopback port " +
                                         std::to_string(opts.port));
            }
            sockaddr_in bound{};
            socklen_t len = sizeof(bound);
            if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
                resolved_port = static_cast<int>(ntohs(bound.sin_port));
        }
        if (::listen(listen_fd, 64) != 0) {
            ::close(listen_fd);
            listen_fd = -1;
            throw std::runtime_error("hapd: listen failed");
        }
    }

    // Explicit early drop (connection governor): one overloaded frame with
    // the retry hint, then close. The send is SO_SNDTIMEO-bounded, so a
    // stalled client cannot wedge the accept loop.
    void shed_connection(int fd) {
        count("hapd.overload.shed_conns");
        (void)send_all(fd, encode_frame(overloaded_response(
                               "", opts.retry_after_ms,
                               "connection limit reached; retry later")));
        (void)::close(fd);
    }

    void accept_loop() {
        while (!stopping.load()) {
            pollfd p{};
            p.fd = listen_fd;
            p.events = POLLIN;
            const int rc = ::poll(&p, 1, 200);  // bounded wait: stop() is honored
            if (rc <= 0) continue;
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping.load()) break;
                continue;
            }
            set_io_timeouts(fd, opts.recv_timeout_ms);
            count("hapd.connections");
            bool admitted = false;
            {
                const std::lock_guard<std::mutex> lock(conn_mutex);
                if (conns.size() < max_conns_eff) {
                    conns.insert(fd);
                    admitted = true;
                    if (obs::enabled())
                        obs::registry().set_gauge_max(
                            "hapd.conns.open_max",
                            static_cast<double>(conns.size()));
                }
            }
            if (!admitted) {
                shed_connection(fd);
                continue;
            }
            if (!pool->submit([this, fd] { handle_connection(fd); })) {
                // The bounded pending queue refused the job: same explicit
                // shed (unless we are stopping, where silence is fine).
                {
                    const std::lock_guard<std::mutex> lock(conn_mutex);
                    conns.erase(fd);
                }
                if (stopping.load()) {
                    (void)::close(fd);
                } else {
                    shed_connection(fd);
                }
            }
        }
    }

    void drop_connection(int fd) {
        {
            const std::lock_guard<std::mutex> lock(conn_mutex);
            conns.erase(fd);
        }
        (void)::close(fd);
    }

    void handle_connection(int fd) {
        if (stopping.load()) {
            // A drained job that only started after shutdown began: answer an
            // explicit error instead of a silent EOF.
            (void)send_all(fd, encode_frame(error_response(
                                   "", "shutting-down", "daemon is stopping")));
            drop_connection(fd);
            return;
        }
        FrameReader reader(opts.max_frame);
        char buf[4096];
        bool open = true;
        // One deadline covers the idle client and the slowloris client alike:
        // a COMPLETE frame must arrive every recv_timeout_ms; partial bytes
        // do not extend it (server.hpp contract).
        const auto frame_timeout = std::chrono::milliseconds(
            opts.recv_timeout_ms > 0 ? opts.recv_timeout_ms : 0);
        Clock::time_point frame_deadline = opts.recv_timeout_ms > 0
                                               ? Clock::now() + frame_timeout
                                               : Clock::time_point::max();
        while (open && !stopping.load()) {
            pollfd p{};
            p.fd = fd;
            p.events = POLLIN;
            // Bounded tick: honors both stop() and the frame deadline even
            // when the client sends nothing at all.
            const int rc = ::poll(&p, 1, 200);
            if (rc < 0) {
                if (errno == EINTR) continue;
                break;
            }
            if (rc == 0) {
                if (Clock::now() >= frame_deadline) {
                    count("hapd.conn.timeouts");
                    break;
                }
                continue;
            }
            const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
            if (n == 0) break;  // client closed (possibly mid-frame: just drop)
            if (n < 0) {
                if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
                    continue;
                break;  // hard error: close
            }
            const Clock::time_point arrival = Clock::now();
            reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
            bool completed_frame = false;
            while (auto body = reader.next()) {
                completed_frame = true;
                const auto [response, shutdown_after] = handle_request(*body, arrival);
                if (!send_all(fd, encode_frame(response))) {
                    open = false;
                    break;
                }
                if (shutdown_after) {
                    request_stop();
                    open = false;
                    break;
                }
            }
            if (reader.failed()) {
                // Framing is unrecoverable — a torn or oversized frame:
                // answer one structured error (best-effort) and drop.
                count("hapd.protocol.errors");
                (void)send_all(fd, encode_frame(error_response("", "frame-error",
                                                               reader.error())));
                break;
            }
            if (completed_frame) {
                frame_deadline = opts.recv_timeout_ms > 0
                                     ? Clock::now() + frame_timeout
                                     : Clock::time_point::max();
            } else if (Clock::now() >= frame_deadline) {
                // Bytes trickled in but no frame finished: the slowloris case.
                count("hapd.conn.timeouts");
                break;
            }
        }
        drop_connection(fd);
    }
};

Hapd::Hapd(ServeOptions opts) : impl_(new Impl(std::move(opts))) {}

Hapd::~Hapd() {
    stop();
    delete impl_;
}

void Hapd::start() {
    // The scrape endpoint and the serving counters are part of the service
    // contract, so the registry is always on while a daemon runs.
    obs::set_enabled(true);
    // Chaos plans parse once here, on the coordinating thread, before any
    // worker exists (env-after-spawn discipline, DESIGN.md §4h).
    (void)experiment::fault_plan();
    const std::size_t threads = std::max<std::size_t>(impl_->opts.threads, 1);
    impl_->max_conns_eff = impl_->opts.max_connections != 0
                               ? impl_->opts.max_connections
                               : threads + impl_->opts.max_pending;
    impl_->degrade_depth_eff =
        impl_->opts.degrade_depth != 0 ? impl_->opts.degrade_depth : threads;
    impl_->shed_depth_eff =
        impl_->opts.shed_depth != 0 ? impl_->opts.shed_depth : 4 * threads;
    impl_->open_socket();
    // +1: one pool slot is the accept loop itself; `threads` handle clients.
    // The pool's bounded job queue IS the pending-connection bound; with
    // max_pending = 0 one transient slot remains so a handler finishing its
    // close never sheds the connection replacing it (the connection governor
    // is the primary cap in that configuration).
    impl_->pool = std::make_unique<parallel::Pool>(
        threads + 1,
        [this](std::exception_ptr ep) {
            try {
                if (ep) std::rethrow_exception(ep);
            } catch (const std::exception& e) {
                impl_->log(std::string("hapd: worker error: ") + e.what());
            } catch (...) {
                impl_->log("hapd: worker error (non-standard exception)");
            }
        },
        std::max<std::size_t>(impl_->opts.max_pending, 1));
    impl_->pool->submit([this] { impl_->accept_loop(); });
    impl_->log("hapd: listening on " + endpoint() +
               (impl_->opts.cache_path.empty()
                    ? std::string(" (memory-only cache)")
                    : " (cache " + impl_->opts.cache_path + ", " +
                          std::to_string(impl_->point_cache.loaded()) +
                          " points restored)"));
    if (obs::enabled())
        obs::registry().add_counter("hapd.cache.loaded", impl_->point_cache.loaded());
}

void Hapd::wait() {
    std::unique_lock<std::mutex> lock(impl_->stop_mutex);
    impl_->stop_cv.wait(lock, [&] { return impl_->stop_requested; });
}

void Hapd::stop() {
    impl_->request_stop();
    if (impl_->pool) {
        // Drain, not abandon: handlers notice `stopping` at their next 200 ms
        // poll tick, finish (and answer) the request in hand, and queued
        // connections get an explicit shutting-down error instead of a lost
        // reply. Every completed solve reaches the cache file before exit.
        impl_->pool->drain();
        impl_->pool.reset();
    }
    if (impl_->listen_fd >= 0) {
        (void)::close(impl_->listen_fd);
        impl_->listen_fd = -1;
        if (!impl_->opts.socket_path.empty())
            (void)::unlink(impl_->opts.socket_path.c_str());
    }
}

int Hapd::port() const noexcept { return impl_->resolved_port; }

std::string Hapd::endpoint() const {
    if (!impl_->opts.socket_path.empty()) return "unix:" + impl_->opts.socket_path;
    return "tcp:127.0.0.1:" + std::to_string(impl_->resolved_port);
}

const PointCache& Hapd::cache() const { return impl_->point_cache; }

}  // namespace hap::service
