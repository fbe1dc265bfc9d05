// End-to-end serving tests for hapd (ISSUE 8 tentpole): an in-process daemon
// on a real socket, driven by real clients over the length-prefixed protocol.
// Covers the full query path (cache hit -> warm start -> budgeted cold
// solve), leader/follower batching, N concurrent clients with zero
// cross-wired responses, protocol abuse over the socket, torn-write crash
// recovery of the persistent cache, and warm restarts serving old points as
// byte-identical hits. Also pins the cache key text, PointCache's
// keyed-index semantics (overwrite in place, later records win on restore)
// and the bounds of its warm-start state store.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "experiment/atomic_file.hpp"
#include "experiment/faultinject.hpp"
#include "experiment/json.hpp"
#include "obs/metrics.hpp"
#include "parallel/pool.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace {

using hap::experiment::FaultPlan;
using hap::experiment::Json;
using hap::experiment::set_fault_plan;
using hap::service::CachedPoint;
using hap::service::Client;
using hap::service::Hapd;
using hap::service::ModelSpec;
using hap::service::Op;
using hap::service::PointCache;
using hap::service::ServeOptions;

std::string temp_path(const std::string& name) {
    const std::string path = ::testing::TempDir() + "hap_" + name;
    (void)std::remove(path.c_str());
    return path;
}

// Small operating points (tight z box, loose tolerance) so a cold solve is
// milliseconds and the harness can push hundreds of queries.
ServeOptions fast_opts() {
    ServeOptions o;
    o.port = 0;  // kernel-assigned loopback port
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

// The check hapbench's reply_replay_identical makes, as a gate: an answer's
// bytes are exactly ok_response(id, payload) rebuilt from its parsed members.
void expect_replays_as_ok_response(const std::string& reply) {
    const Json r = Json::parse(reply);
    Json payload = Json::object();
    for (const auto& [key, value] : r.members())
        if (key != "ok" && key != "id") payload.set(key, value);
    const Json* id = r.find("id");
    EXPECT_EQ(hap::service::ok_response(id != nullptr ? id->as_string() : "", payload),
              reply);
}

// The raw bytes of an answer's "result" member, which is always written last.
std::string result_bytes(const std::string& reply) {
    const std::string tag = "\"result\":";
    const std::size_t at = reply.find(tag);
    if (at == std::string::npos) return "";
    return reply.substr(at + tag.size(), reply.size() - at - tag.size() - 1);
}

TEST(HapdServing, PingMetricsAndShutdownOps) {
    Hapd daemon(fast_opts());
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    Client c = Client::connect_tcp(daemon.port());
    const Json pong = call_json(c, hap::service::build_simple_request(Op::Ping, "p1"));
    EXPECT_TRUE(pong.at("ok").as_bool());
    EXPECT_EQ(pong.at("id").as_string(), "p1");
    EXPECT_TRUE(pong.at("pong").as_bool());

    const Json m = call_json(c, hap::service::build_simple_request(Op::Metrics, "m1"));
    EXPECT_TRUE(m.at("ok").as_bool());
    EXPECT_GE(counter(m, "hapd.queries.ping"), 1u);
    EXPECT_EQ(m.at("schema").as_string(), "hap.obs.metrics/v1");
    EXPECT_EQ(m.find("text"), nullptr);
    // The warm-start store's gauge is scraped before any solve.
    EXPECT_EQ(m.at("gauges").at("hapd.cache.state_bytes").as_number(), 0.0);

    const Json bye = call_json(c, hap::service::build_simple_request(Op::Shutdown, "s1"));
    EXPECT_TRUE(bye.at("ok").as_bool());
    EXPECT_TRUE(bye.at("stopping").as_bool());
    daemon.wait();  // the shutdown op must end the serve loop
    daemon.stop();
}

TEST(HapdServing, CacheHitReplaysByteIdentical) {
    const std::string sock = temp_path("svc_hit.sock");
    ServeOptions o = fast_opts();
    o.port = 0;
    o.socket_path = sock;  // exercise the Unix-domain transport too
    Hapd daemon(std::move(o));
    daemon.start();
    EXPECT_EQ(daemon.endpoint(), "unix:" + sock);

    Client c = Client::connect_unix(sock);
    const std::string req = hap::service::build_solve_request(light_model(0.002), "q");
    const std::string first = c.call(req);
    const std::string second = c.call(req);
    const Json j1 = Json::parse(first);
    const Json j2 = Json::parse(second);
    EXPECT_EQ(j1.at("source").as_string(), "cold");
    EXPECT_EQ(j2.at("source").as_string(), "hit");
    // The headline guarantee: the replayed result is the SAME BYTES the
    // original solve produced, not a re-derivation that happens to agree.
    EXPECT_EQ(j1.at("result").dump(0), j2.at("result").dump(0));
    std::string as_hit = first;
    as_hit.replace(as_hit.find("\"cold\""), 6, "\"hit\"");
    EXPECT_EQ(second, as_hit);
    expect_replays_as_ok_response(first);
    expect_replays_as_ok_response(second);
    daemon.stop();
}

TEST(HapdServing, WarmStartStaysWithinRelTolOfColdSolve) {
    ServeOptions o = fast_opts();
    o.tol = 1e-9;  // tight per-solve tolerance so warm-vs-cold agree to 1e-6
    o.trunc_tol = 1e-9;
    Hapd warm_daemon(o);
    warm_daemon.start();
    Client wc = Client::connect_tcp(warm_daemon.port());

    // Seed the family, then query the neighbor: this answer is warm-started.
    (void)wc.call(hap::service::build_solve_request(light_model(0.002), "seed"));
    const Json warm =
        call_json(wc, hap::service::build_solve_request(light_model(0.0024), "w"));
    ASSERT_TRUE(warm.at("ok").as_bool());
    EXPECT_EQ(warm.at("source").as_string(), "warm");
    EXPECT_TRUE(warm.at("result").at("warm_started").as_bool());
    warm_daemon.stop();

    // A fresh daemon knows no neighbor: the same point solves cold.
    Hapd cold_daemon(o);
    cold_daemon.start();
    Client cc = Client::connect_tcp(cold_daemon.port());
    const Json cold =
        call_json(cc, hap::service::build_solve_request(light_model(0.0024), "c"));
    ASSERT_TRUE(cold.at("ok").as_bool());
    EXPECT_EQ(cold.at("source").as_string(), "cold");
    cold_daemon.stop();

    for (const char* field : {"mean_delay", "utilization", "sigma", "mean_rate",
                              "mean_messages"}) {
        const double w = warm.at("result").at(field).as_number();
        const double c = cold.at("result").at(field).as_number();
        ASSERT_NE(c, 0.0) << field;
        EXPECT_LE(std::abs(w - c) / std::abs(c), 1e-6)
            << field << ": warm " << w << " vs cold " << c;
    }
}

// The gating harness: 8 concurrent clients, >200 queries total, a mixed
// hit/miss/batched workload — every response ok, every response carrying the
// id of the request that asked for it (no drops, no cross-wiring).
// The solver records grow with every solve, so a scrape can outgrow the
// frame cap. That reply is a structured error, and the connection it came
// from keeps serving.
TEST(HapdServing, OversizedScrapeIsAnErrorAndTheConnectionServesOn) {
    hap::obs::registry().reset();
    Hapd daemon(fast_opts());
    daemon.start();
    hap::obs::SolverTelemetry filler;
    filler.solver = "filler";
    filler.label = std::string(1000, 'x');
    for (std::uint64_t run = 0; run < 1200; ++run) {  // > 1.2 MB of labels
        filler.run_id = run;
        hap::obs::registry().record_solver(filler);
    }

    Client c = Client::connect_tcp(daemon.port());
    const Json m = call_json(c, hap::service::build_simple_request(Op::Metrics, "big"));
    EXPECT_FALSE(m.at("ok").as_bool());
    EXPECT_EQ(m.at("id").as_string(), "big");
    EXPECT_EQ(m.at("code").as_string(), "response-too-large");
    const Json pong = call_json(c, hap::service::build_simple_request(Op::Ping, "p"));
    EXPECT_TRUE(pong.at("pong").as_bool());

    hap::obs::registry().reset();
    const Json small = call_json(c, hap::service::build_simple_request(Op::Metrics, "m"));
    EXPECT_TRUE(small.at("ok").as_bool());
    EXPECT_EQ(small.at("schema").as_string(), "hap.obs.metrics/v1");
    daemon.stop();
}

TEST(HapdServing, ConcurrentClientsNoDroppedOrCrossWiredResponses) {
    hap::obs::registry().reset();
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();

    constexpr int kClients = 8;
    constexpr int kQueriesEach = 26;  // 8 * 26 = 208 >= 200
    const double lambdas[] = {0.0016, 0.0018, 0.002, 0.0022, 0.0024, 0.0026};
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};

    std::vector<std::thread> clients;  // haplint: allow(naked-thread) -- independent serving clients
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            try {
                Client c = Client::connect_tcp(port);
                for (int q = 0; q < kQueriesEach; ++q) {
                    std::string id = "t";
                    id += std::to_string(t);
                    id += "-q";
                    id += std::to_string(q);
                    std::string body;
                    switch (q % 5) {
                        case 0:
                            body = hap::service::build_simple_request(Op::Ping, id);
                            break;
                        case 1:
                            body = hap::service::build_admission_request(
                                light_model(lambdas[(t + q) % 6]), 0.1, id);
                            break;
                        default:
                            body = hap::service::build_solve_request(
                                light_model(lambdas[(t + q) % 6]), id);
                    }
                    const Json r = Json::parse(c.call(body));
                    if (!r.at("ok").as_bool()) failures.fetch_add(1);
                    if (r.at("id").as_string() != id) mismatches.fetch_add(1);
                }
            } catch (const std::exception&) {
                failures.fetch_add(1000);  // a dropped connection fails loudly
            }
        });
    }
    for (std::thread& th : clients) th.join();  // haplint: allow(naked-thread) -- independent serving clients
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(failures.load(), 0);

    Client probe = Client::connect_tcp(port);
    const Json m =
        call_json(probe, hap::service::build_simple_request(Op::Metrics, "m"));
    EXPECT_GE(counter(m, "hapd.queries"), 208u);
    // Every solve/admission query counts its lookup exactly once; a batch
    // leader's race re-check counts apart, as hapd.batch.late_hits.
    EXPECT_EQ(counter(m, "hapd.cache.hits") + counter(m, "hapd.cache.misses"),
              counter(m, "hapd.queries.solve") + counter(m, "hapd.queries.admission"));
    // 6 distinct solve points + 6 admission points exist; everything else of
    // the ~166 solve/admission queries must have been served from cache.
    EXPECT_GE(counter(m, "hapd.cache.hits"), 100u);
    const std::uint64_t solves = counter(m, "hapd.solve.cold") +
                                 counter(m, "hapd.solve.warm") +
                                 counter(m, "hapd.solve.failed");
    EXPECT_EQ(solves, 6u);  // each unique operating point solved exactly once
    // The scrape is one hap.obs.metrics/v1 snapshot: every finished request
    // is in the latency histogram (the +1 is this scrape, still in flight),
    // and its sparse buckets account for every sample.
    EXPECT_EQ(m.at("schema").as_string(), "hap.obs.metrics/v1");
    const Json& latency = m.at("histograms").at("hapd.latency.request");
    EXPECT_EQ(latency.at("count").as_uint() + 1, counter(m, "hapd.queries"));
    std::uint64_t in_buckets = 0;
    for (const Json& b : latency.at("buckets").items()) in_buckets += b.at("n").as_uint();
    EXPECT_EQ(in_buckets, latency.at("count").as_uint());
    daemon.stop();
}

// Six clients asking for six DIFFERENT points of one family at the same
// instant: the first miss becomes the batch leader and the others coalesce
// into its warm-started continuation chain instead of solving independently.
TEST(HapdServing, ConcurrentFamilyMissesCoalesceIntoOneChain) {
    hap::obs::registry().reset();
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();
    const double lambdas[] = {0.0015, 0.0017, 0.0019, 0.0021, 0.0023, 0.0025};

    std::atomic<int> failures{0};
    std::vector<std::string> replies(std::size(lambdas));
    std::vector<std::thread> clients;  // haplint: allow(naked-thread) -- independent serving clients
    for (std::size_t i = 0; i < std::size(lambdas); ++i) {
        clients.emplace_back([&, i] {
            try {
                Client c = Client::connect_tcp(port);
                replies[i] = c.call(hap::service::build_solve_request(
                    light_model(lambdas[i]), "b"));
                if (!Json::parse(replies[i]).at("ok").as_bool()) failures.fetch_add(1);
            } catch (const std::exception&) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : clients) th.join();  // haplint: allow(naked-thread) -- independent serving clients
    EXPECT_EQ(failures.load(), 0);
    std::size_t batched = 0;
    for (const std::string& reply : replies) {
        expect_replays_as_ok_response(reply);
        if (Json::parse(reply).find("batch") != nullptr) ++batched;
    }
    EXPECT_GE(batched, 2u);  // a coalesced round answers each of its points

    Client probe = Client::connect_tcp(port);
    const Json m =
        call_json(probe, hap::service::build_simple_request(Op::Metrics, "m"));
    const std::uint64_t solves =
        counter(m, "hapd.solve.cold") + counter(m, "hapd.solve.warm");
    EXPECT_EQ(solves, 6u);  // no duplicated work
    // Six misses cannot have taken six leader rounds: at least one round
    // served two or more points (the coalescing path actually ran).
    EXPECT_GE(counter(m, "hapd.batch.rounds"), 1u);
    EXPECT_LE(counter(m, "hapd.batch.rounds"), 5u);
    daemon.stop();
}

// Bit-equal misses queued behind a stalled leader share one waiter: every
// claimant gets the full answer, not only the first one to wake.
TEST(HapdServing, BitEqualFollowersEachGetTheFullAnswer) {
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();

    set_fault_plan(FaultPlan::parse("stall@solve#400"));
    std::vector<std::string> replies(3);
    const auto ask = [&](std::size_t slot, double lambda) {
        Client c = Client::connect_tcp(port);
        replies[slot] =
            c.call(hap::service::build_solve_request(light_model(lambda), "s"));
    };
    std::vector<std::thread> clients;  // haplint: allow(naked-thread) -- independent serving clients
    clients.emplace_back(ask, 0, 0.002);  // leader, held in the stall
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    clients.emplace_back(ask, 1, 0.0022);
    clients.emplace_back(ask, 2, 0.0022);
    for (std::thread& th : clients) th.join();  // haplint: allow(naked-thread) -- independent serving clients
    set_fault_plan(FaultPlan::parse(""));

    const Json a = Json::parse(replies[1]);
    const Json b = Json::parse(replies[2]);
    ASSERT_TRUE(a.at("ok").as_bool());
    ASSERT_TRUE(b.at("ok").as_bool());
    EXPECT_NE(a.at("result").find("mean_delay"), nullptr);
    EXPECT_EQ(a.at("result").dump(0), b.at("result").dump(0));
    daemon.stop();
}

// Protocol abuse over a real socket: every hostile stream gets a structured
// error or a clean drop, and the daemon keeps serving afterwards.
TEST(HapdServing, SurvivesProtocolAbuseOverSocket) {
    ServeOptions o = fast_opts();
    o.recv_timeout_ms = 2000;  // a stalled hostile client gets dropped
    Hapd daemon(std::move(o));
    daemon.start();
    const int port = daemon.port();

    {  // oversized length prefix -> one frame-error response, then close
        Client c = Client::connect_tcp(port);
        c.send_raw(std::string("\xff\xff\xff\xff", 4));
        const auto r = c.recv();
        ASSERT_TRUE(r.has_value());
        const Json j = Json::parse(*r);
        EXPECT_FALSE(j.at("ok").as_bool());
        EXPECT_EQ(j.at("code").as_string(), "frame-error");
        EXPECT_FALSE(c.recv().has_value());  // server closed
    }
    {  // zero-length frame -> frame-error, close
        Client c = Client::connect_tcp(port);
        c.send_raw(std::string(4, '\0'));
        const auto r = c.recv();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(Json::parse(*r).at("code").as_string(), "frame-error");
    }
    {  // truncated frame + mid-frame disconnect -> clean drop, no response
        Client c = Client::connect_tcp(port);
        c.send_raw(std::string("\x64\x00\x00\x00", 4));  // promises 100 bytes
        c.send_raw("only a few");
        c.shutdown_write();
        EXPECT_FALSE(c.recv().has_value());
    }
    {  // garbage JSON in a valid frame -> bad-request, connection SURVIVES
        Client c = Client::connect_tcp(port);
        c.send("this is not json");
        const auto r = c.recv();
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(Json::parse(*r).at("code").as_string(), "bad-request");
        const Json pong =
            call_json(c, hap::service::build_simple_request(Op::Ping, "after"));
        EXPECT_TRUE(pong.at("ok").as_bool());
    }
    {  // well-formed JSON, invalid model -> structured bad-request
        Client c = Client::connect_tcp(port);
        const Json r = Json::parse(c.call(R"({"op":"solve","lambda":-1})"));
        EXPECT_FALSE(r.at("ok").as_bool());
        EXPECT_EQ(r.at("code").as_string(), "bad-request");
        EXPECT_NE(r.at("error").as_string().find("invalid model"), std::string::npos);
    }
    {  // deterministic garbage payload shower inside valid frames
        std::uint64_t lcg = 0xdeadbeefcafef00dull;
        Client c = Client::connect_tcp(port);
        for (int i = 0; i < 40; ++i) {
            std::string payload;
            const std::size_t len = 1 + static_cast<std::size_t>((lcg >> 40) & 0x1f);
            for (std::size_t b = 0; b < len; ++b) {
                lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
                payload.push_back(static_cast<char>(lcg >> 33));
            }
            const auto r = [&]() -> std::optional<std::string> {
                c.send(payload);
                return c.recv();
            }();
            ASSERT_TRUE(r.has_value()) << "round " << i;
            EXPECT_FALSE(Json::parse(*r).at("ok").as_bool());
        }
    }

    // After all of the abuse the daemon still answers real work.
    Client c = Client::connect_tcp(port);
    const Json solved =
        call_json(c, hap::service::build_solve_request(light_model(0.002), "ok"));
    EXPECT_TRUE(solved.at("ok").as_bool());
    daemon.stop();
}

// Crash recovery (ISSUE 8 satellite): a fault kills the cache writer halfway
// through a record. The daemon contains it (answer still served, failure
// counted); a restarted daemon tolerates the torn tail, serves every
// previously completed point as a byte-identical hit, and the torn point is
// re-solved and re-persisted.
TEST(HapdServing, TornCacheWriteIsContainedAndRecoveredOnRestart) {
    const std::string cache = temp_path("svc_crash.ckpt");
    ServeOptions o = fast_opts();
    o.cache_path = cache;
    const std::string good_req =
        hap::service::build_solve_request(light_model(0.002), "good");
    const std::string torn_req =
        hap::service::build_solve_request(light_model(0.0026), "torn");

    std::string good_result;
    std::string good_bytes;
    {
        hap::obs::registry().reset();
        Hapd daemon(o);
        daemon.start();
        Client c = Client::connect_tcp(daemon.port());
        const std::string reply = c.call(good_req);
        const Json g = Json::parse(reply);
        ASSERT_TRUE(g.at("ok").as_bool());
        good_result = g.at("result").dump(0);
        good_bytes = result_bytes(reply);

        // Kill the writer mid-record for everything that follows.
        set_fault_plan(FaultPlan::parse("write@hap_svc_crash"));
        const Json t = Json::parse(c.call(torn_req));
        set_fault_plan(FaultPlan::parse(""));
        EXPECT_TRUE(t.at("ok").as_bool());  // served from memory regardless
        EXPECT_EQ(daemon.cache().persist_errors(), 1u);
        const Json m =
            call_json(c, hap::service::build_simple_request(Op::Metrics, "m"));
        EXPECT_EQ(m.at("cache").at("persist_errors").as_uint(), 1u);
        daemon.stop();
    }

    // The file must genuinely end in a torn half-record.
    {
        std::string text;
        ASSERT_TRUE(hap::experiment::read_file(cache, text));
        ASSERT_FALSE(text.empty());
        EXPECT_NE(text.back(), '\n');
    }

    {
        hap::obs::registry().reset();
        Hapd daemon(o);  // restart on the torn file
        daemon.start();
        EXPECT_EQ(daemon.cache().loaded(), 1u);  // the completed point only
        Client c = Client::connect_tcp(daemon.port());

        const std::string reply = c.call(good_req);
        const Json g = Json::parse(reply);
        EXPECT_EQ(g.at("source").as_string(), "hit");
        EXPECT_EQ(g.at("result").dump(0), good_result);  // byte-identical
        EXPECT_EQ(result_bytes(reply), good_bytes);     // restored from disk
        expect_replays_as_ok_response(reply);

        const Json t = Json::parse(c.call(torn_req));  // torn point: re-solve
        EXPECT_TRUE(t.at("ok").as_bool());
        EXPECT_NE(t.at("source").as_string(), "hit");

        const Json m =
            call_json(c, hap::service::build_simple_request(Op::Metrics, "m"));
        EXPECT_EQ(counter(m, "hapd.cache.loaded"), 1u);
        EXPECT_GE(counter(m, "hapd.cache.hits"), 1u);
        daemon.stop();
    }

    {  // third generation: the re-solved point is now persisted -> a hit
        Hapd daemon(o);
        daemon.start();
        EXPECT_EQ(daemon.cache().loaded(), 2u);
        Client c = Client::connect_tcp(daemon.port());
        const Json t = Json::parse(c.call(torn_req));
        EXPECT_EQ(t.at("source").as_string(), "hit");
        (void)c.call(hap::service::build_simple_request(Op::Shutdown, "bye"));
        daemon.wait();
        daemon.stop();
    }
}

// Admission queries run through the shared core::AdmissionQuery struct and
// must agree exactly with a direct evaluate_admission call (the hoisted-
// struct satellite: one tuple, two consumers, same numbers).
TEST(HapdServing, AdmissionAgreesWithDirectEvaluation) {
    Hapd daemon(fast_opts());
    daemon.start();
    Client c = Client::connect_tcp(daemon.port());

    ModelSpec m = light_model(0.0055);
    m.service = 20.0;
    m.max_users = 20;
    const std::string first = c.call(hap::service::build_admission_request(m, 0.1, "adm"));
    const Json r = Json::parse(first);
    ASSERT_TRUE(r.at("ok").as_bool());

    hap::core::AdmissionQuery q;
    q.max_users = m.max_users;
    q.service_rate = m.service;
    q.delay_budget = 0.1;
    const hap::core::AdmissionOutcome direct =
        hap::core::evaluate_admission(m.params(), q);
    EXPECT_EQ(r.at("result").at("admit").as_bool(), direct.admit);
    EXPECT_EQ(r.at("result").at("stable").as_bool(), direct.stable);
    EXPECT_EQ(r.at("result").at("mean_rate").as_number(), direct.mean_rate);
    EXPECT_EQ(r.at("result").at("sigma").as_number(), direct.sigma);
    EXPECT_EQ(r.at("result").at("mean_delay").as_number(), direct.mean_delay);

    // Second ask is a cache hit under the admission key, replaying the
    // first answer's result bytes.
    const std::string second =
        c.call(hap::service::build_admission_request(m, 0.1, "adm2"));
    const Json again = Json::parse(second);
    EXPECT_EQ(again.at("source").as_string(), "hit");
    EXPECT_EQ(result_bytes(second), result_bytes(first));
    expect_replays_as_ok_response(first);
    expect_replays_as_ok_response(second);
    daemon.stop();
}

// The cache key text is the persisted file's key column, so it is pinned
// byte for byte: shortest round-trip doubles, "null" for non-finite values,
// counts in plain decimal.
TEST(CacheKeys, PinnedTextForBaselineAndEdgeValues) {
    const ModelSpec base;  // the paper's Section-4 baseline
    EXPECT_EQ(hap::service::solve_key(base), "s0:0.0055;0.001;0.01;0.01;5;0.1;3;20;0;0");
    EXPECT_EQ(hap::service::solve_family(base), "f0:;0.001;0.01;0.01;5;0.1;3;20;0;0");
    EXPECT_EQ(hap::service::admission_key(base, 0.1),
              "adm:0.1;s0:0.0055;0.001;0.01;0.01;5;0.1;3;20;0;0");

    ModelSpec edge;
    edge.lambda = 1e-300;
    edge.mu = 0.1 + 0.2;
    edge.lambda1 = 2.5e-5;
    edge.service = 1e21;
    edge.max_users = std::numeric_limits<std::size_t>::max();
    edge.max_apps = 123456789;
    EXPECT_EQ(hap::service::solve_key(edge),
              "s0:1e-300;0.30000000000000004;2.5e-05;0.01;5;0.1;3;1e+21;"
              "18446744073709551615;123456789");
    EXPECT_EQ(hap::service::solve_family(edge),
              "f0:;0.30000000000000004;2.5e-05;0.01;5;0.1;3;1e+21;"
              "18446744073709551615;123456789");
    EXPECT_EQ(hap::service::admission_key(edge, std::numeric_limits<double>::infinity()),
              "adm:null;s0:1e-300;0.30000000000000004;2.5e-05;0.01;5;0.1;3;1e+21;"
              "18446744073709551615;123456789");
    edge.lambda = std::numeric_limits<double>::quiet_NaN();
    EXPECT_EQ(hap::service::solve_key(edge).substr(0, 8), "s0:null;");
}

CachedPoint point(const std::string& key, const std::string& family, double coord,
                  std::int64_t value) {
    CachedPoint cp;
    cp.key = key;
    cp.family = family;
    cp.coord = coord;
    cp.kind = "solve";
    cp.quality = "ok";
    cp.result = Json::object();
    cp.result.set("v", Json::integer(value));
    return cp;
}

// An overwrite replaces the entry in place: the size stays, and nearest()'s
// tie-break (equal distance, equal coordinate: first in insertion order)
// still picks the overwritten key.
TEST(PointCacheIndex, InsertOverwriteKeepsSizeAndNearestTieBreak) {
    PointCache cache("");
    const std::vector<std::pair<std::string, int>> inserts = {{"a", 1}, {"b", 2}, {"a", 3}};
    for (const auto& [key, value] : inserts) {
        CachedPoint cp = point(key, "fam", 1.0, value);
        cp.state.pi.assign(1, static_cast<double>(value));
        EXPECT_EQ(cache.insert(std::move(cp)), "{\"v\":" + std::to_string(value) + "}");
    }
    EXPECT_EQ(cache.size(), 2u);
    const auto near = cache.nearest("fam", 1.0);
    ASSERT_TRUE(near.has_value());
    EXPECT_EQ(near->state.pi, std::vector<double>{3.0});
    const auto answer = cache.nearest_result("fam", 1.0);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->result, "{\"v\":3}");
    EXPECT_EQ(cache.lookup("a")->result, "{\"v\":3}");
    EXPECT_EQ(cache.lookup("b")->result, "{\"v\":2}");
    EXPECT_FALSE(cache.lookup("c").has_value());
}

// A cache file that repeats a key restores the LAST record for it, in the
// position of the FIRST: the same state an in-memory overwrite leaves.
TEST(PointCacheIndex, RestoreRepeatedKeyLastRecordWinsInFirstPosition) {
    const std::string path = temp_path("cache_repeat.ckpt");
    {
        PointCache cache(path);
        (void)cache.insert(point("a", "fam", 1.0, 1));
        (void)cache.insert(point("b", "fam", 1.0, 2));
        (void)cache.insert(point("a", "fam", 1.0, 3));
    }
    const PointCache restored(path);
    EXPECT_EQ(restored.loaded(), 2u);
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_EQ(restored.lookup("a")->result, "{\"v\":3}");
    const auto answer = restored.nearest_result("fam", 1.0);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->result, "{\"v\":3}");  // "a" still sorts first
    (void)std::remove(path.c_str());
}

TEST(PointCacheIndex, TenThousandEntryRestoreAnswersEveryKey) {
    constexpr int kEntries = 10000;
    const std::string path = temp_path("cache_10k.ckpt");
    std::string text = R"({"schema":"hap.ckpt/v1","config":"hapd-cache/v1"})" "\n";
    const auto record = [&](int i, int value) {
        text += R"({"point":{"key":"adm:0.1;k)" + std::to_string(i) +
                R"(","kind":"admission","quality":"ok","result":{"v":)" +
                std::to_string(value) + "}}}\n";
    };
    for (int i = 0; i < kEntries; ++i) record(i, i);
    for (int i = 0; i < kEntries; i += 7) record(i, -i);  // later records win
    ASSERT_TRUE(hap::experiment::atomic_write_file(path, text));

    const PointCache cache(path);
    EXPECT_EQ(cache.loaded(), static_cast<std::size_t>(kEntries));
    for (int i = 0; i < kEntries; ++i) {
        const auto hit = cache.lookup("adm:0.1;k" + std::to_string(i));
        ASSERT_TRUE(hit.has_value()) << i;
        EXPECT_EQ(hit->result, "{\"v\":" + std::to_string(i % 7 == 0 ? -i : i) + "}");
    }
    (void)std::remove(path.c_str());
}

std::string key_of(const std::string& family, double coord) {
    std::string key = family;
    key += ';';
    key += std::to_string(coord);
    return key;
}

// A state whose lattice values name the point it came from.
CachedPoint stated_point(const std::string& family, double coord, std::size_t doubles = 1) {
    CachedPoint cp = point(key_of(family, coord), family, coord,
                           static_cast<std::int64_t>(coord * 1000.0));
    cp.state.pi.assign(doubles, coord);
    return cp;
}

double seed_coord(const PointCache& cache, const std::string& family, double coord) {
    const auto near = cache.nearest(family, coord);
    if (!near.has_value()) return -1.0;
    EXPECT_EQ(near->state.pi.front(), near->coord);  // the state is the point's own
    return near->coord;
}

// A Fig. 12 style ascending sweep: the newest point always replaces the
// previous tip, so the next point's seed is the previous point, as it was
// with every state kept.
TEST(PointCacheStates, AscendingChainSeedsFromThePreviousPoint) {
    PointCache cache("");
    for (int i = 1; i <= 16; ++i) {
        (void)cache.insert(stated_point("fam", 0.001 * i));
        EXPECT_EQ(seed_coord(cache, "fam", 0.001 * (i + 1)), 0.001 * i) << i;
        EXPECT_EQ(cache.states().states, static_cast<std::size_t>(std::min(i, 4))) << i;
    }
    EXPECT_EQ(cache.states().dropped, 12u);
    EXPECT_EQ(cache.size(), 16u);
}

// A fifth state drops its nearest neighbor's, not the oldest one.
TEST(PointCacheStates, FifthStateReplacesItsNearestNeighbor) {
    PointCache cache("");
    for (const double c : {1.0, 2.0, 3.0, 4.0}) (void)cache.insert(stated_point("fam", c));
    (void)cache.insert(stated_point("other", 3.95));  // another family is no neighbor
    (void)cache.insert(stated_point("fam", 3.9));
    EXPECT_EQ(cache.states().states, 5u);
    EXPECT_EQ(cache.states().dropped, 1u);
    EXPECT_EQ(seed_coord(cache, "fam", 4.0), 3.9);  // 4's state is gone
    EXPECT_EQ(seed_coord(cache, "fam", 1.0), 1.0);  // the oldest is kept
    EXPECT_EQ(seed_coord(cache, "fam", 2.1), 2.0);
    EXPECT_EQ(seed_coord(cache, "other", 4.0), 3.95);
    // Equidistant neighbors: the lower coordinate's state goes.
    (void)cache.insert(stated_point("fam", 2.5));
    EXPECT_EQ(seed_coord(cache, "fam", 2.1), 2.5);
    EXPECT_EQ(seed_coord(cache, "fam", 1.4), 1.0);
}

// Ten thousand inserts over 200 families under a small budget: the retained
// bytes never exceed the budget plus the newest state, and every family
// keeps at most four.
TEST(PointCacheStates, ByteBudgetHoldsOverTenThousandInserts) {
    constexpr std::size_t kBudget = std::size_t{64} << 10;
    PointCache cache("", "hapd-cache/v1", kBudget);
    std::size_t max_bytes = 0;
    for (std::size_t i = 0; i < 10000; ++i) {
        const std::size_t doubles = 16 + (i * 37) % 700;
        std::string family = "f";
        family += std::to_string(i % 200);
        (void)cache.insert(stated_point(family, 1.0 + static_cast<double>(i), doubles));
        const hap::service::StateStore store = cache.states();
        ASSERT_LE(store.bytes, kBudget + doubles * sizeof(double)) << i;
        ASSERT_LE(store.states, 4u * 200u);
        max_bytes = std::max(max_bytes, store.bytes);
    }
    // The budget, not the family cap, bound the store: it filled to within
    // one state of the budget and kept far fewer than four per family.
    EXPECT_GT(max_bytes, kBudget - 716 * sizeof(double));
    EXPECT_LT(cache.states().states, 200u);
    // A state past the budget on its own is kept alone.
    (void)cache.insert(stated_point("huge", 0.5, kBudget / sizeof(double) + 1));
    EXPECT_EQ(cache.states().states, 1u);
    EXPECT_EQ(seed_coord(cache, "huge", 0.5), 0.5);
}

// An entry whose state was evicted still answers exactly: lookup and the
// approx rung give the bytes its insert stored.
TEST(PointCacheStates, EntryThatLostItsStateKeepsItsAnswers) {
    PointCache cache("");
    std::vector<std::string> stored;
    for (const double c : {1.0, 2.0, 3.0, 4.0, 4.1})
        stored.push_back(cache.insert(stated_point("fam", c)));
    EXPECT_EQ(seed_coord(cache, "fam", 4.0), 4.1);  // 4 lost its state
    const auto hit = cache.lookup(key_of("fam", 4.0));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, stored[3]);
    EXPECT_EQ(hit->quality, "ok");
    const auto approx = cache.nearest_result("fam", 4.0);
    ASSERT_TRUE(approx.has_value());
    EXPECT_EQ(approx->coord, 4.0);
    EXPECT_EQ(approx->result, stored[3]);
}

TEST(PointCacheStates, DegradedInsertKeepsNoState) {
    PointCache cache("");
    CachedPoint cp = stated_point("fam", 1.0, 100);
    cp.quality = "degraded";
    const std::string bytes = cache.insert(std::move(cp));
    EXPECT_EQ(cache.states().states, 0u);
    EXPECT_EQ(cache.states().bytes, 0u);
    EXPECT_FALSE(cache.nearest("fam", 1.0).has_value());
    EXPECT_EQ(cache.lookup(key_of("fam", 1.0))->result, bytes);
}

// Overwriting a key replaces its state: its bytes count once, and a
// degraded overwrite takes them out.
TEST(PointCacheStates, OverwriteCountsItsBytesOnce) {
    PointCache cache("");
    (void)cache.insert(stated_point("fam", 1.0, 100));
    (void)cache.insert(stated_point("fam", 1.0, 100));
    EXPECT_EQ(cache.states().states, 1u);
    EXPECT_EQ(cache.states().bytes, 100 * sizeof(double));
    for (int i = 0; i < 6; ++i) (void)cache.insert(stated_point("fam", 1.0, 50));
    EXPECT_EQ(cache.states().states, 1u);  // one key never fills its family
    EXPECT_EQ(cache.states().dropped, 0u);
    EXPECT_EQ(cache.states().bytes, 50 * sizeof(double));
    CachedPoint cp = stated_point("fam", 1.0, 100);
    cp.quality = "degraded";
    (void)cache.insert(std::move(cp));
    EXPECT_EQ(cache.states().states, 0u);
    EXPECT_EQ(cache.states().bytes, 0u);
    EXPECT_EQ(cache.size(), 1u);
}

// Two clients each walking six points of their own family at once: every
// reply is a well-formed answer, and the daemon keeps four states per
// family, evicting the other two.
TEST(HapdServing, TwoFamiliesSolvedConcurrentlyKeepFourStatesEach) {
    hap::obs::registry().reset();
    Hapd daemon(fast_opts());
    daemon.start();
    const int port = daemon.port();
    std::atomic<int> failures{0};
    std::vector<std::vector<std::string>> replies(2);
    std::vector<std::thread> clients;  // haplint: allow(naked-thread) -- independent serving clients
    for (std::size_t f = 0; f < 2; ++f) {
        clients.emplace_back([&, f] {
            try {
                Client c = Client::connect_tcp(port);
                for (int i = 0; i < 6; ++i) {
                    ModelSpec m = light_model(0.0015 + 0.0002 * i);
                    m.service = f == 0 ? 30.0 : 25.0;
                    replies[f].push_back(c.call(hap::service::build_solve_request(m, "t")));
                }
            } catch (const std::exception&) {
                failures.fetch_add(1);
            }
        });
    }
    for (std::thread& th : clients) th.join();  // haplint: allow(naked-thread) -- independent serving clients
    EXPECT_EQ(failures.load(), 0);
    for (const auto& family : replies) {
        ASSERT_EQ(family.size(), 6u);
        for (const std::string& reply : family) {
            EXPECT_TRUE(Json::parse(reply).at("ok").as_bool()) << reply;
            expect_replays_as_ok_response(reply);
        }
    }

    Client probe = Client::connect_tcp(port);
    const Json m = call_json(probe, hap::service::build_simple_request(Op::Metrics, "m"));
    EXPECT_EQ(m.at("cache").at("size").as_uint(), 12u);
    EXPECT_EQ(m.at("cache").at("states").as_uint(), 8u);
    EXPECT_EQ(counter(m, "hapd.cache.states_dropped"), 4u);
    const hap::service::StateStore store = daemon.cache().states();
    EXPECT_EQ(m.at("gauges").at("hapd.cache.state_bytes").as_number(),
              static_cast<double>(store.bytes));
    EXPECT_GT(store.bytes, 0u);
    daemon.stop();
}

// The resident worker pool under the daemon, in isolation.
TEST(WorkerPool, RunsJobsContainsExceptionsAndRefusesAfterShutdown) {
    std::atomic<int> ran{0};
    std::atomic<int> errors{0};
    {
        hap::parallel::Pool pool(4, [&](std::exception_ptr) { errors.fetch_add(1); });
        EXPECT_EQ(pool.threads(), 4u);
        for (int i = 0; i < 64; ++i)
            ASSERT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
        ASSERT_TRUE(pool.submit([] { throw std::runtime_error("contained"); }));
        // shutdown() drops jobs that have not STARTED (by contract), so wait
        // for the queue to drain before asking the workers to stop.
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while ((ran.load() < 64 || errors.load() < 1) &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pool.shutdown();
        EXPECT_FALSE(pool.submit([&] { ran.fetch_add(1000); }));
        pool.shutdown();  // idempotent
    }
    EXPECT_EQ(ran.load(), 64);
    EXPECT_EQ(errors.load(), 1);
}

}  // namespace
