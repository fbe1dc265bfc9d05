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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiment/analytic.hpp"
#include "experiment/faultinject.hpp"
#include "experiment/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/pool.hpp"
#include "service/scheduler.hpp"

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

using Clock = SchedClock;

// `ms` after `from`; 0 means no deadline.
Clock::time_point deadline_after(Clock::time_point from, std::uint64_t ms) {
    return ms > 0 ? from + std::chrono::milliseconds(ms) : Clock::time_point::max();
}

std::size_t workers(const ServeOptions& o) { return std::max<std::size_t>(o.threads, 1); }

}  // namespace

struct Hapd::Impl {
    ServeOptions opts;
    PointCache point_cache;

    int listen_fd = -1;
    int resolved_port = 0;
    std::atomic<bool> stopping{false};
    std::unique_ptr<parallel::Pool> pool;

    // Connection governor: the cap (0-valued option resolved) and the open
    // count. Only the accept loop raises open_conns, so checking then raising
    // cannot overshoot the cap.
    const std::size_t max_conns_eff;
    std::atomic<std::size_t> open_conns{0};

    // The solve-queue policy; every call is made under solve_mutex, and
    // solve_cv wakes followers when a round is answered.
    std::mutex solve_mutex;
    std::condition_variable solve_cv;
    SolveScheduler scheduler;

    explicit Impl(ServeOptions o)
        : opts(std::move(o)),
          point_cache(opts.cache_path),
          max_conns_eff(opts.max_connections != 0 ? opts.max_connections
                                                  : workers(opts) + opts.max_pending),
          scheduler(opts.degrade_depth != 0 ? opts.degrade_depth : workers(opts),
                    opts.shed_depth != 0 ? opts.shed_depth : 4 * workers(opts)) {}

    void log(const std::string& line) {
        if (opts.log) opts.log(line);
    }

    void request_stop() {
        stopping.store(true);
        stopping.notify_all();
    }

    // --- query handlers ----------------------------------------------------

    void release_depth() {
        const std::lock_guard<std::mutex> lock(solve_mutex);
        scheduler.release();
    }

    // Exact cache hit: the stored result bytes spliced into the reply.
    // Counts the lookup as a hit or a miss.
    std::optional<std::string> hit_reply(const std::string& id, const std::string& key) {
        auto hit = point_cache.lookup(key);
        if (!hit) {
            count("hapd.cache.misses");
            return std::nullopt;
        }
        count("hapd.cache.hits");
        return answer_response(
            id, Answer{"hit", std::move(hit->quality), 1, std::nullopt, std::move(hit->result)});
    }

    std::string handle_solve(const Request& req, Clock::time_point arrival) {
        const obs::ScopedTimer timer("hapd.latency.solve");
        count("hapd.queries.solve");
        if (auto hit = hit_reply(req.id, solve_key(req.model))) return std::move(*hit);

        // Deadline is relative to frame receipt (protocol.hpp contract).
        const Clock::time_point deadline = deadline_after(arrival, req.deadline_ms);

        // Overload ladder (DESIGN.md §4l): this miss holds a depth slot from
        // here until it is answered; the depth at entry picks the rung.
        Admission admission;
        {
            const std::lock_guard<std::mutex> lock(solve_mutex);
            admission = scheduler.admit();
        }
        if (obs::enabled())
            obs::registry().set_gauge_max("hapd.overload.depth_max",
                                          static_cast<double>(admission.depth));
        if (admission.rung == Rung::Shed) {
            count("hapd.overload.shed");
            return overloaded_response(req.id, opts.retry_after_ms,
                                       "solve queue is full; retry later");
        }
        const bool clamped = admission.rung == Rung::Degrade;
        if (clamped) {
            // Approx rung first: a cached family neighbor inside the distance
            // bound answers without spending any solve at all.
            auto near = point_cache.nearest_result(solve_family(req.model),
                                                   req.model.lambda);
            if (near.has_value()) {
                const double denom = std::max(std::abs(req.model.lambda), 1e-300);
                const double dist = std::abs(near->coord - req.model.lambda) / denom;
                if (dist <= opts.approx_rel_distance) {
                    release_depth();
                    count("hapd.overload.approx");
                    return answer_response(
                        req.id, Answer{"approx", "approx", 1, dist, std::move(near->result)});
                }
            }
            count("hapd.overload.clamped");
        }

        const std::shared_ptr<Waiter> w = enqueue_and_solve(req.model, clamped, deadline);
        release_depth();
        if (w == nullptr) {
            count("hapd.overload.deadline_exceeded");
            return deadline_exceeded_response(req.id);
        }
        if (!w->error.empty()) return error_response(req.id, "solve-failed", w->error);
        return answer_response(req.id, w->answer);
    }

    std::string handle_admission(const Request& req) {
        const obs::ScopedTimer timer("hapd.latency.admission");
        count("hapd.queries.admission");
        const std::string key = admission_key(req.model, req.delay_budget);
        if (auto hit = hit_reply(req.id, key)) return std::move(*hit);
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
        cp.result = std::move(r);
        return answer_response(
            req.id, Answer{"cold", "ok", 1, std::nullopt, point_cache.insert(std::move(cp))});
    }

    std::string handle_metrics(const Request& req) {
        count("hapd.queries.metrics");
        Json payload = experiment::obs_metrics_json(obs::registry().snapshot());
        Json cache = Json::object();
        cache.set("size", Json::integer(std::uint64_t{point_cache.size()}));
        cache.set("loaded", Json::integer(std::uint64_t{point_cache.loaded()}));
        cache.set("persist_errors",
                  Json::integer(std::uint64_t{point_cache.persist_errors()}));
        cache.set("states", Json::integer(std::uint64_t{point_cache.states().states}));
        payload.set("cache", std::move(cache));
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
        auto reply = dispatch(req, arrival);
        // A reply past the frame cap (a scrape of a registry grown large)
        // cannot be framed: answer a structured error in its place, so the
        // connection keeps serving.
        if (reply.first.size() > kMaxFrameBody) {
            count("hapd.internal.errors");
            reply.first = error_response(
                req.id, "response-too-large",
                "reply of " + std::to_string(reply.first.size()) + " bytes exceeds the " +
                    std::to_string(kMaxFrameBody) + "-byte frame cap");
        }
        return reply;
    }

    // The op's reply; a throwing handler becomes an "internal" error.
    std::pair<std::string, bool> dispatch(const Request& req, Clock::time_point arrival) {
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

    // Returns the answered waiter, or nullptr when the request's deadline
    // expired while it was queued behind another leader's round.
    std::shared_ptr<Waiter> enqueue_and_solve(const ModelSpec& model, bool clamped,
                                              Clock::time_point deadline) {
        std::unique_lock<std::mutex> lock(solve_mutex);
        const Claim claim = scheduler.join(model, clamped);
        if (!claim.leader) {
            count("hapd.batch.followers");
            const auto answered = [&] { return claim.waiter->done; };
            if (deadline == Clock::time_point::max()) {
                solve_cv.wait(lock, answered);
            } else {
                (void)solve_cv.wait_until(lock, deadline, answered);
            }
            const ClaimState state = scheduler.settle(claim, deadline, Clock::now());
            return state == ClaimState::Answered ? claim.waiter : nullptr;
        }
        for (;;) {
            const Round round = scheduler.take(claim);
            if (round.expired > 0) count("hapd.overload.expired_points", round.expired);
            if (round.points.empty()) break;
            lock.unlock();
            solve_round(claim, round.points);
            lock.lock();
            scheduler.finish(round.points);
            solve_cv.notify_all();
        }
        return claim.waiter;
    }

    // Answer one round from one warm-started continuation chain, writing each
    // point's waiter (published afterwards by finish()). Runs unlocked.
    void solve_round(const Claim& leader, const std::vector<SolvePoint>& points) {
        count("hapd.batch.rounds");
        // A solve that raced us may have landed these keys already. Each
        // claimant already counted its lookup as a miss, so this re-check
        // counts apart from hapd.cache.hits.
        std::vector<const SolvePoint*> todo;
        for (const SolvePoint& pt : points) {
            if (auto hit = point_cache.lookup(pt.key)) {
                count("hapd.batch.late_hits");
                pt.waiter->answer = Answer{"hit", std::move(hit->quality), 1, std::nullopt,
                                           std::move(hit->result)};
            } else {
                todo.push_back(&pt);
            }
        }
        if (todo.empty()) return;
        if (todo.size() > 1) count("hapd.batch.coalesced", todo.size() - 1);

        // Chaos hook: stall@solve#ms holds the batch leader here — bucket in flight,
        // followers queued — for the scripted duration. This is the
        // window the chaos harness uses to pile deterministic load behind one
        // solve and exercise every ladder rung.
        if (const auto stall =
                experiment::fault_value(experiment::FaultKind::Stall, "solve")) {
            count("hapd.solve.stalls");
            std::this_thread::sleep_for(std::chrono::milliseconds(*stall));
        }

        // Continuation chain over the round, seeded from the family's nearest
        // solved neighbor (PR 4 warm-start machinery end to end).
        const std::optional<NearestState> seed =
            point_cache.nearest(leader.family, todo.front()->model.lambda);

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
        sweep.solver.budget = leader.clamped ? opts.clamp_budget : opts.budget;
        if (seed.has_value()) {
            sweep.seed = &seed->state;
            sweep.seed_coord = seed->coord;
        }

        std::vector<experiment::AnalyticPoint> grid;
        grid.reserve(todo.size());
        for (const SolvePoint* pt : todo) {
            experiment::AnalyticPoint ap;
            ap.name = pt->key;
            ap.params = pt->model.params();
            ap.coord = pt->model.lambda;
            grid.push_back(std::move(ap));
        }

        std::vector<experiment::AnalyticPointResult> results;
        try {
            const obs::ScopedTimer timer("hapd.latency.sweep");
            results = experiment::run_analytic_sweep(grid, sweep, nullptr);
        } catch (const std::exception& e) {
            count("hapd.solve.failed", todo.size());
            for (const SolvePoint* pt : todo) pt->waiter->error = e.what();
            return;
        }

        for (std::size_t i = 0; i < todo.size(); ++i) {
            const SolvePoint& pt = *todo[i];
            experiment::AnalyticPointResult& pr = results[i];
            if (pr.failed()) {
                count("hapd.solve.failed");
                pt.waiter->error = pr.error;
                continue;
            }
            const bool warm = pr.s0.warm_started;
            count(warm ? "hapd.solve.warm" : "hapd.solve.cold");
            if (pr.quality == "degraded") count("hapd.solve.degraded");
            Json result = solve_result_json(pr.s0);

            std::string bytes;
            if (leader.clamped) {
                // Clamped answers are deliberately NOT cached: a later
                // unloaded solve of the same point must run at full budget
                // and land the real answer (also keeps the cache file
                // byte-identical to a fault-free, unloaded run).
                bytes = result.dump(0);
            } else {
                CachedPoint cp;
                cp.key = pt.key;
                cp.family = leader.family;
                cp.coord = pt.model.lambda;
                cp.kind = "solve";
                cp.quality = pr.quality;
                cp.result = std::move(result);
                cp.state = std::move(pr.s0.state);
                bytes = point_cache.insert(std::move(cp));
            }

            pt.waiter->answer = Answer{warm ? "warm" : "cold",
                                       leader.clamped ? "clamped" : pr.quality,
                                       todo.size(), std::nullopt, std::move(bytes)};
        }
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
            if (fd < 0) continue;  // the loop condition honors stop()
            set_io_timeouts(fd, opts.recv_timeout_ms);
            count("hapd.connections");
            if (open_conns.load() >= max_conns_eff) {
                shed_connection(fd);
                continue;
            }
            const std::size_t open = ++open_conns;
            if (obs::enabled())
                obs::registry().set_gauge_max("hapd.conns.open_max",
                                              static_cast<double>(open));
            if (!pool->submit([this, fd] { handle_connection(fd); })) {
                // The bounded pending queue refused the job: same explicit
                // shed (unless we are stopping, where silence is fine).
                --open_conns;
                if (stopping.load()) {
                    (void)::close(fd);
                } else {
                    shed_connection(fd);
                }
            }
        }
    }

    void drop_connection(int fd) {
        --open_conns;
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
        FrameReader reader;
        char buf[4096];
        bool open = true;
        // One deadline covers the idle client and the slowloris client alike:
        // a COMPLETE frame must arrive every recv_timeout_ms; partial bytes
        // do not extend it (server.hpp contract).
        const auto frame_timeout_ms =
            static_cast<std::uint64_t>(std::max(opts.recv_timeout_ms, 0));
        Clock::time_point frame_deadline = deadline_after(Clock::now(), frame_timeout_ms);
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
                frame_deadline = deadline_after(Clock::now(), frame_timeout_ms);
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
    impl_->open_socket();
    // +1: one pool slot is the accept loop itself; the rest handle clients.
    // The pool's bounded job queue IS the pending-connection bound; with
    // max_pending = 0 one transient slot remains so a handler finishing its
    // close never sheds the connection replacing it (the connection governor
    // is the primary cap in that configuration).
    impl_->pool = std::make_unique<parallel::Pool>(
        workers(impl_->opts) + 1,
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
    if (obs::enabled()) {
        obs::registry().add_counter("hapd.cache.loaded", impl_->point_cache.loaded());
        // Present from the start: a restarted daemon holds no states yet.
        obs::registry().set_gauge("hapd.cache.state_bytes",
                                  static_cast<double>(impl_->point_cache.states().bytes));
    }
}

void Hapd::wait() { impl_->stopping.wait(false); }

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
