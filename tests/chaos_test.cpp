// Network chaos harness for hapd (ISSUE 10 tentpole, DESIGN.md §4l): drives
// the daemon through the HAP_FAULT_INJECT service-fault grammar —
// slowloris@conn, torn_frame@conn, stall@solve#ms, storm@accept#n — and
// asserts the overload contract: zero hung threads (every client thread
// joins), zero lost replies (every request gets a well-formed reply or a
// typed error), shed/degrade/deadline accounting that matches the injected
// plan exactly, and a drain-on-stop that answers in-flight work.
//
// Fault plans are swapped with set_fault_plan() only at quiescent points (no
// solve in flight), matching the faultinject.hpp contract; the hooks
// themselves are read-only.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiment/faultinject.hpp"
#include "experiment/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/pool.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace {

using hap::experiment::FaultKind;
using hap::experiment::FaultPlan;
using hap::experiment::Json;
using hap::experiment::set_fault_plan;
using hap::service::CallOutcome;
using hap::service::Client;
using hap::service::Hapd;
using hap::service::ModelSpec;
using hap::service::Op;
using hap::service::RetryPolicy;
using hap::service::ServeOptions;

// Clear any plan a prior test (or the environment) left behind.
struct PlanReset {
    PlanReset() { set_fault_plan(FaultPlan{}); }
    ~PlanReset() { set_fault_plan(FaultPlan{}); }
};

ServeOptions fast_opts() {
    ServeOptions o;
    o.port = 0;
    o.threads = 8;
    o.tol = 1e-7;
    o.trunc_tol = 1e-7;
    o.zmax = 30;
    o.recv_timeout_ms = 60000;
    return o;
}

ModelSpec light_model(double lambda) {
    ModelSpec m;
    m.lambda = lambda;
    m.service = 30.0;
    return m;
}

Json call_json(Client& c, const std::string& body) {
    return Json::parse(c.call(body));
}

std::uint64_t counter(const Json& metrics_response, const std::string& name) {
    const Json* v = metrics_response.at("counters").find(name);
    return v == nullptr ? 0 : v->as_uint();
}

Json scrape(int port) {
    Client probe = Client::connect_tcp(port);
    return call_json(probe, hap::service::build_simple_request(Op::Metrics, "m"));
}

// slowloris@conn: a client dribbling one byte per tick past the complete-
// frame deadline is dropped (and counted), while a well-behaved client on
// the same daemon keeps being served.
TEST(HapdChaos, SlowlorisClientDroppedWellBehavedClientServed) {
    const PlanReset guard;
    ServeOptions o = fast_opts();
    o.threads = 2;
    o.recv_timeout_ms = 250;
    Hapd daemon(std::move(o));
    daemon.start();
    const int port = daemon.port();

    // A ping frame is ~30 bytes; at 25 ms/byte the complete frame takes
    // ~750 ms — far past the 250 ms deadline, so the server must cut it off.
    set_fault_plan(FaultPlan::parse("slowloris@conn#25"));
    bool dropped = false;
    try {
        Client slow = Client::connect_tcp(port);
        slow.send(hap::service::build_simple_request(Op::Ping, "slow"));
        dropped = !slow.recv().has_value();  // EOF mid-dribble
    } catch (const std::exception&) {
        dropped = true;  // or the dribbling send hit the server's close
    }
    set_fault_plan(FaultPlan{});
    EXPECT_TRUE(dropped);

    Client fast = Client::connect_tcp(port);
    const Json pong =
        call_json(fast, hap::service::build_simple_request(Op::Ping, "fast"));
    EXPECT_TRUE(pong.at("ok").as_bool());

    const Json m = scrape(port);
    EXPECT_GE(counter(m, "hapd.conn.timeouts"), 1u);
    daemon.stop();
}

// torn_frame@conn: half a frame then a half-close is a CLEAN drop — no
// response, no frame-error (the bytes were merely incomplete), and the
// daemon serves the next connection as if nothing happened.
TEST(HapdChaos, TornFrameIsACleanDropNotAProtocolError) {
    const PlanReset guard;
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();
    const std::uint64_t errors_before = counter(scrape(port), "hapd.protocol.errors");

    set_fault_plan(FaultPlan::parse("torn_frame@conn"));
    {
        Client torn = Client::connect_tcp(port);
        torn.send(hap::service::build_simple_request(Op::Ping, "torn"));
        EXPECT_FALSE(torn.recv().has_value());  // dropped, no reply fabricated
    }
    set_fault_plan(FaultPlan{});

    Client after = Client::connect_tcp(port);
    const Json pong =
        call_json(after, hap::service::build_simple_request(Op::Ping, "after"));
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_EQ(counter(scrape(port), "hapd.protocol.errors"), errors_before);
    daemon.stop();
}

// stall@solve + deadline_ms: a request queued behind a stalled batch leader
// whose deadline lapses is answered deadline_exceeded WITHOUT spending a
// solve; the leader's own solve completes normally.
TEST(HapdChaos, DeadlineExpiresBehindStalledLeaderWithoutSpendingASolve) {
    const PlanReset guard;
    hap::obs::registry().reset();
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();

    set_fault_plan(FaultPlan::parse("stall@solve#800"));
    std::string leader_reply;
    std::thread leader([&] {  // haplint: allow(naked-thread) -- independent serving client
        Client c = Client::connect_tcp(port);
        leader_reply = c.call(hap::service::build_solve_request(light_model(0.002), "L"));
    });
    // Let the leader take the family, then queue a follower in the SAME
    // family with a deadline that lapses long before the 800 ms stall ends.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Client follower = Client::connect_tcp(port);
    const Json late = call_json(
        follower,
        hap::service::build_solve_request(light_model(0.0022), "F", /*deadline_ms=*/150));
    leader.join();  // haplint: allow(naked-thread) -- independent serving client
    set_fault_plan(FaultPlan{});

    EXPECT_FALSE(late.at("ok").as_bool());
    EXPECT_EQ(late.at("code").as_string(), "deadline_exceeded");
    EXPECT_EQ(late.at("id").as_string(), "F");
    const Json ok = Json::parse(leader_reply);
    EXPECT_TRUE(ok.at("ok").as_bool());

    const Json m = scrape(port);
    EXPECT_EQ(counter(m, "hapd.overload.deadline_exceeded"), 1u);
    EXPECT_GE(counter(m, "hapd.solve.stalls"), 1u);
    EXPECT_GE(counter(m, "hapd.batch.followers"), 1u);
    // The withdrawn point must not have been solved: one solve total (L's).
    EXPECT_EQ(counter(m, "hapd.solve.cold") + counter(m, "hapd.solve.warm"), 1u);
    daemon.stop();
}

// The full degradation ladder under a stalled solve: depth 1 solves
// normally, depth 2 answers approx from the cached neighbor (inside the
// distance bound) or clamps (outside it), depth 3 sheds — each rung counted
// exactly once, matching the injected schedule.
TEST(HapdChaos, OverloadLadderApproxClampShedCountedExactly) {
    const PlanReset guard;
    hap::obs::registry().reset();
    ServeOptions o = fast_opts();
    o.degrade_depth = 1;
    o.shed_depth = 2;
    o.approx_rel_distance = 0.5;
    o.retry_after_ms = 40;
    Hapd daemon(std::move(o));
    daemon.start();
    const int port = daemon.port();

    // Seed the family so the approx rung has a neighbor to answer from.
    {
        Client c = Client::connect_tcp(port);
        const Json seed =
            call_json(c, hap::service::build_solve_request(light_model(0.002), "seed"));
        ASSERT_TRUE(seed.at("ok").as_bool());
    }

    set_fault_plan(FaultPlan::parse("stall@solve#2000"));
    // A: miss at depth 1 -> normal leader, held in the stall for 2 s.
    std::string a_reply;
    std::thread a([&] {  // haplint: allow(naked-thread) -- independent serving client
        Client c = Client::connect_tcp(port);
        a_reply = c.call(hap::service::build_solve_request(light_model(0.0021), "A"));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // B: miss at depth 2, neighbor 0.002 is ~1% away (inside the 50% bound)
    // -> approx, answered instantly, depth released.
    Client bc = Client::connect_tcp(port);
    const std::string b_reply =
        bc.call(hap::service::build_solve_request(light_model(0.00202), "B"));
    const Json b = Json::parse(b_reply);
    EXPECT_TRUE(b.at("ok").as_bool());
    // The approx answer splices the neighbor's stored result bytes; they are
    // exactly what ok_response writes for the same members.
    {
        Json payload = Json::object();
        for (const auto& [key, value] : b.members())
            if (key != "ok" && key != "id") payload.set(key, value);
        EXPECT_EQ(hap::service::ok_response("B", payload), b_reply);
    }
    EXPECT_EQ(b.at("quality").as_string(), "approx");
    EXPECT_EQ(b.at("source").as_string(), "approx");
    EXPECT_GT(b.at("distance").as_number(), 0.0);
    EXPECT_LE(b.at("distance").as_number(), 0.5);

    // C: miss at depth 2, neighbor is 80% away (outside the bound) -> the
    // clamped rung; C leads the clamped bucket and stalls there too.
    std::string c_reply;
    std::thread c([&] {  // haplint: allow(naked-thread) -- independent serving client
        Client cc = Client::connect_tcp(port);
        c_reply = cc.call(hap::service::build_solve_request(light_model(0.01), "C"));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));

    // D: miss at depth 3 (> shed_depth 2) -> shed with the retry hint.
    Client dc = Client::connect_tcp(port);
    const Json d = call_json(
        dc, hap::service::build_solve_request(light_model(0.012), "D"));
    EXPECT_FALSE(d.at("ok").as_bool());
    EXPECT_EQ(d.at("code").as_string(), "overloaded");
    EXPECT_EQ(d.at("retry_after_ms").as_uint(), 40u);

    a.join();  // haplint: allow(naked-thread) -- independent serving client
    c.join();  // haplint: allow(naked-thread) -- independent serving client
    set_fault_plan(FaultPlan{});

    const Json a_json = Json::parse(a_reply);
    EXPECT_TRUE(a_json.at("ok").as_bool());
    EXPECT_NE(a_json.at("quality").as_string(), "clamped");
    const Json c_json = Json::parse(c_reply);
    EXPECT_TRUE(c_json.at("ok").as_bool());
    EXPECT_EQ(c_json.at("quality").as_string(), "clamped");

    const Json m = scrape(port);
    EXPECT_EQ(counter(m, "hapd.overload.approx"), 1u);
    EXPECT_EQ(counter(m, "hapd.overload.clamped"), 1u);
    EXPECT_EQ(counter(m, "hapd.overload.shed"), 1u);
    EXPECT_EQ(counter(m, "hapd.solve.stalls"), 2u);  // A's chain and C's chain

    // Clamped answers are not cached: asking for C's point again under no
    // load is a fresh full-budget solve, not a hit.
    Client again = Client::connect_tcp(port);
    const Json full = call_json(
        again, hap::service::build_solve_request(light_model(0.01), "C2"));
    EXPECT_TRUE(full.at("ok").as_bool());
    EXPECT_NE(full.at("source").as_string(), "hit");
    EXPECT_NE(full.at("quality").as_string(), "clamped");
    daemon.stop();
}

// storm@accept#n sizes a connection storm against a tiny connection cap:
// every client eventually gets its answer via retry/backoff, every extra
// attempt corresponds to exactly one counted shed — nothing hangs, nothing
// is silently dropped.
TEST(HapdChaos, ConnectionStormShedsAreCountedAndRetriesRecover) {
    const PlanReset guard;
    hap::obs::registry().reset();
    ServeOptions o = fast_opts();
    o.threads = 2;
    o.max_connections = 3;
    o.retry_after_ms = 20;
    Hapd daemon(std::move(o));
    daemon.start();
    const int port = daemon.port();

    set_fault_plan(FaultPlan::parse("storm@accept#10"));
    const auto storm =
        hap::experiment::fault_value(FaultKind::Storm, "accept", 1);
    ASSERT_TRUE(storm.has_value());
    const int kClients = static_cast<int>(*storm);
    set_fault_plan(FaultPlan{});  // the daemon itself has no storm hook

    std::atomic<int> served{0};
    std::atomic<std::uint64_t> extra_attempts{0};
    std::vector<std::thread> clients;  // haplint: allow(naked-thread) -- independent serving clients
    clients.reserve(static_cast<std::size_t>(kClients));
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            RetryPolicy policy;
            policy.max_retries = 60;
            policy.base_ms = 5;
            policy.jitter_ms = 10;
            policy.seed = static_cast<std::uint64_t>(i + 1);
            std::string id = "c";
            id += std::to_string(i);
            try {
                const CallOutcome out = hap::service::call_with_retry(
                    [port] { return Client::connect_tcp(port, "127.0.0.1", 5000); },
                    hap::service::build_simple_request(Op::Ping, id), policy);
                const Json r = Json::parse(out.body);
                if (r.at("ok").as_bool()) served.fetch_add(1);
                extra_attempts.fetch_add(out.attempts - 1);
            } catch (const std::exception&) {
                // counted as not served
            }
        });
    }
    for (std::thread& t : clients) t.join();  // haplint: allow(naked-thread) -- independent serving clients
    EXPECT_EQ(served.load(), kClients);  // zero lost replies

    // Exact accounting: every retry a client made was caused by exactly one
    // overloaded frame, and every shed the server counted reached a client.
    const Json m = scrape(port);
    EXPECT_EQ(counter(m, "hapd.overload.shed_conns"), extra_attempts.load());
    daemon.stop();
}

// Drain-on-stop: stop() while a (stalled) solve is in flight still answers
// the client and persists the solve before the daemon exits.
TEST(HapdChaos, StopDrainsInFlightSolveAndAnswersTheClient) {
    const PlanReset guard;
    ServeOptions o = fast_opts();
    o.threads = 2;
    Hapd daemon(std::move(o));
    daemon.start();
    const int port = daemon.port();

    set_fault_plan(FaultPlan::parse("stall@solve#400"));
    std::string reply;
    std::thread inflight([&] {  // haplint: allow(naked-thread) -- independent serving client
        Client c = Client::connect_tcp(port);
        reply = c.call(hap::service::build_solve_request(light_model(0.002), "inflight"));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    daemon.stop();  // drains: must NOT abandon the stalled solve
    inflight.join();  // haplint: allow(naked-thread) -- independent serving client
    set_fault_plan(FaultPlan{});

    const Json r = Json::parse(reply);
    EXPECT_TRUE(r.at("ok").as_bool());  // the in-flight client got its answer
    EXPECT_GE(daemon.cache().size(), 1u);  // and the solve reached the cache
}

// The pool drain/backpressure primitives the daemon's governor is built on.
TEST(ChaosWorkerPool, DrainRunsEveryQueuedJobBeforeJoining) {
    std::atomic<int> ran{0};
    hap::parallel::Pool pool(2);
    for (int i = 0; i < 32; ++i)
        ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
    pool.drain();  // must run ALL 32, not drop the queued tail
    EXPECT_EQ(ran.load(), 32);
    EXPECT_FALSE(pool.submit([&] { ran.fetch_add(1000); }));
    pool.drain();  // idempotent
    EXPECT_EQ(ran.load(), 32);
}

TEST(ChaosWorkerPool, BoundedQueueRefusesOverflow) {
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    hap::parallel::Pool pool(1, nullptr, 2);
    ASSERT_TRUE(pool.submit([&] {
        started.store(true);
        while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }));
    // Wait until the blocker occupies the worker so the queue is empty.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!started.load() && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(started.load());
    std::atomic<int> ran{0};
    EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));   // queue 1/2
    EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));   // queue 2/2
    EXPECT_FALSE(pool.submit([&] { ran.fetch_add(100); }));  // refused: full
    release.store(true);
    pool.drain();
    EXPECT_EQ(ran.load(), 2);
}

}  // namespace
