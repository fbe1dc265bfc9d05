// hapd wire-protocol fuzz/property tests (no sockets — the decoder is pure
// bytes in, frames out): framing round trips under arbitrary chunking,
// zero-length / oversized / truncated prefixes, garbage payloads, request
// parsing and validation, and the builder->parser round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "experiment/json.hpp"
#include "service/protocol.hpp"

namespace {

using hap::experiment::Json;
using hap::service::Answer;
using hap::service::answer_response;
using hap::service::build_admission_request;
using hap::service::build_simple_request;
using hap::service::build_solve_request;
using hap::service::encode_frame;
using hap::service::FrameReader;
using hap::service::kFrameHeaderBytes;
using hap::service::kMaxFrameBody;
using hap::service::ModelSpec;
using hap::service::ok_response;
using hap::service::Op;
using hap::service::parse_request;
using hap::service::ProtocolError;
using hap::service::Request;

std::string header(std::uint32_t len) {
    std::string h;
    h.push_back(static_cast<char>(len & 0xff));
    h.push_back(static_cast<char>((len >> 8) & 0xff));
    h.push_back(static_cast<char>((len >> 16) & 0xff));
    h.push_back(static_cast<char>((len >> 24) & 0xff));
    return h;
}

TEST(FrameCodec, RoundTripsOneFrame) {
    const std::string body = R"({"op":"ping"})";
    FrameReader r;
    r.feed(encode_frame(body));
    const auto out = r.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, body);
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.failed());
    EXPECT_EQ(r.pending(), 0u);
}

TEST(FrameCodec, YieldsFramesInOrderUnderArbitraryChunking) {
    const std::vector<std::string> bodies{"a", R"({"op":"ping"})",
                                          std::string(1000, 'x'), "{}"};
    std::string stream;
    for (const std::string& b : bodies) stream += encode_frame(b);

    // Property: every split position of the byte stream yields the same
    // frame sequence — framing is independent of TCP segmentation.
    for (std::size_t split = 0; split <= stream.size(); ++split) {
        FrameReader r;
        r.feed(std::string_view(stream).substr(0, split));
        std::vector<std::string> got;
        while (auto b = r.next()) got.push_back(*b);
        r.feed(std::string_view(stream).substr(split));
        while (auto b = r.next()) got.push_back(*b);
        ASSERT_FALSE(r.failed()) << "split at " << split;
        ASSERT_EQ(got.size(), bodies.size()) << "split at " << split;
        for (std::size_t i = 0; i < bodies.size(); ++i) EXPECT_EQ(got[i], bodies[i]);
    }
}

TEST(FrameCodec, ByteAtATimeFeeding) {
    const std::string stream = encode_frame("hello") + encode_frame("world");
    FrameReader r;
    std::vector<std::string> got;
    for (char c : stream) {
        r.feed(std::string_view(&c, 1));
        while (auto b = r.next()) got.push_back(*b);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "hello");
    EXPECT_EQ(got[1], "world");
}

TEST(FrameCodec, ZeroLengthPrefixIsStickyError) {
    FrameReader r;
    r.feed(header(0) + encode_frame("never seen"));
    EXPECT_FALSE(r.next().has_value());
    EXPECT_TRUE(r.failed());
    EXPECT_NE(r.error().find("zero-length"), std::string::npos);
    // Sticky: even well-formed frames after the bad prefix are refused.
    r.feed(encode_frame("still never seen"));
    EXPECT_FALSE(r.next().has_value());
    EXPECT_TRUE(r.failed());
}

TEST(FrameCodec, OversizedPrefixIsRejectedBeforeAllocation) {
    FrameReader r;
    r.feed(header(0xffffffffu));  // ~4 GiB claim; must not try to buffer it
    EXPECT_FALSE(r.next().has_value());
    EXPECT_TRUE(r.failed());
    EXPECT_NE(r.error().find("exceeds"), std::string::npos);
    EXPECT_EQ(r.pending(), 0u);
}

TEST(FrameCodec, TruncatedFrameStaysPendingNotError) {
    FrameReader r;
    r.feed(header(100) + "only ten b");  // header promises 100, body cut short
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.failed());  // might still arrive; a disconnect just drops it
    EXPECT_EQ(r.pending(), kFrameHeaderBytes + 10);
}

TEST(FrameCodec, PartialHeaderStaysPending) {
    FrameReader r;
    r.feed("\x05\x00");  // 2 of 4 header bytes
    EXPECT_FALSE(r.next().has_value());
    EXPECT_FALSE(r.failed());
}

TEST(FrameCodec, EncodeRejectsEmptyAndOversized) {
    EXPECT_THROW((void)encode_frame(""), ProtocolError);
    EXPECT_THROW((void)encode_frame(std::string(kMaxFrameBody + 1, 'x')), ProtocolError);
}

// Deterministic garbage streams: whatever bytes arrive, the decoder either
// yields frames, parks as pending, or reports a sticky error — it never
// crashes and never fabricates a frame longer than the cap.
TEST(FrameCodec, FuzzGarbageStreamsNeverMisbehave) {
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;  // fixed seed: reproducible
    const auto next_byte = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<char>(lcg >> 33);
    };
    for (int round = 0; round < 200; ++round) {
        const std::size_t len = 1 + static_cast<std::size_t>(next_byte() & 0x3f);
        std::string bytes;
        for (std::size_t i = 0; i < len; ++i) bytes.push_back(next_byte());
        FrameReader r;
        r.feed(bytes);
        while (auto b = r.next()) {
            EXPECT_LE(b->size(), kMaxFrameBody);
        }
        // Invariant: error XOR (pending <= what was fed).
        if (!r.failed()) {
            EXPECT_LE(r.pending(), bytes.size());
        }
    }
}

TEST(RequestParsing, AllOpsParse) {
    EXPECT_EQ(parse_request(R"({"op":"ping"})").op, Op::Ping);
    EXPECT_EQ(parse_request(R"({"op":"metrics"})").op, Op::Metrics);
    EXPECT_EQ(parse_request(R"({"op":"shutdown"})").op, Op::Shutdown);
    EXPECT_EQ(parse_request(R"({"op":"solve"})").op, Op::Solve);
    EXPECT_EQ(parse_request(R"({"op":"admission"})").op, Op::Admission);
}

TEST(RequestParsing, RejectsMalformedInputs) {
    EXPECT_THROW((void)parse_request("not json"), ProtocolError);
    EXPECT_THROW((void)parse_request("[1,2,3]"), ProtocolError);
    EXPECT_THROW((void)parse_request("{}"), ProtocolError);  // no op
    EXPECT_THROW((void)parse_request(R"({"op":"levitate"})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":7})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"ping","id":42})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"solve","model":3})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"solve","lambda":"fast"})"),
                 ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"solve","l":-2})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"solve","l":2.5})"), ProtocolError);
    // Structurally fine but physically invalid models fail validation.
    EXPECT_THROW((void)parse_request(R"({"op":"solve","lambda":-1})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"solve","service":0})"), ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"admission","budget":-0.5})"),
                 ProtocolError);
}

TEST(RequestParsing, DefaultsAreThePaperBaseline) {
    const Request r = parse_request(R"({"op":"solve"})");
    EXPECT_EQ(r.model.lambda, 0.0055);
    EXPECT_EQ(r.model.mu, 0.001);
    EXPECT_EQ(r.model.l, 5u);
    EXPECT_EQ(r.model.m, 3u);
    EXPECT_EQ(r.model.service, 20.0);
    EXPECT_EQ(r.model.max_users, 0u);
}

TEST(RequestParsing, FlatAndNestedModelsAgree) {
    const Request flat =
        parse_request(R"({"op":"solve","lambda":0.003,"service":25})");
    const Request nested =
        parse_request(R"({"op":"solve","model":{"lambda":0.003,"service":25}})");
    EXPECT_EQ(flat.model.lambda, nested.model.lambda);
    EXPECT_EQ(flat.model.service, nested.model.service);
}

// Builders emit every model field explicitly and the parser restores the
// exact bits — the property the cache's canonical keys rest on.
TEST(RequestParsing, BuilderParserRoundTripIsExact) {
    ModelSpec m;
    m.lambda = 0.1 + 0.2;  // 0.30000000000000004: shortest-form must round-trip
    m.mu = 1e-9;
    m.lambda1 = 0.017;
    m.mu1 = 3.3;
    m.l = 7;
    m.lambda2 = 0.125;
    m.m = 2;
    m.service = 19.5;
    m.max_users = 40;
    m.max_apps = 11;
    const Request r = parse_request(build_solve_request(m, "rt-1"));
    EXPECT_EQ(r.id, "rt-1");
    EXPECT_EQ(r.model.lambda, m.lambda);
    EXPECT_EQ(r.model.mu, m.mu);
    EXPECT_EQ(r.model.lambda1, m.lambda1);
    EXPECT_EQ(r.model.mu1, m.mu1);
    EXPECT_EQ(r.model.l, m.l);
    EXPECT_EQ(r.model.lambda2, m.lambda2);
    EXPECT_EQ(r.model.m, m.m);
    EXPECT_EQ(r.model.service, m.service);
    EXPECT_EQ(r.model.max_users, m.max_users);
    EXPECT_EQ(r.model.max_apps, m.max_apps);

    const Request a = parse_request(build_admission_request(m, 0.07, "rt-2"));
    EXPECT_EQ(a.op, Op::Admission);
    EXPECT_EQ(a.delay_budget, 0.07);
    const auto q = a.admission_query();
    EXPECT_EQ(q.max_users, m.max_users);
    EXPECT_EQ(q.max_apps, m.max_apps);
    EXPECT_EQ(q.service_rate, m.service);
    EXPECT_EQ(q.delay_budget, 0.07);

    EXPECT_EQ(parse_request(build_simple_request(Op::Shutdown, "")).op, Op::Shutdown);
    EXPECT_THROW((void)build_simple_request(Op::Solve, ""), ProtocolError);
}

// PR 10 surface: relative deadlines and the overload envelopes.
TEST(RequestParsing, DeadlineRoundTripsAndZeroIsOmitted) {
    ModelSpec m;
    const Request r = parse_request(build_solve_request(m, "d1", 1500));
    EXPECT_EQ(r.deadline_ms, 1500u);
    const Request a = parse_request(build_admission_request(m, 0.1, "d2", 77));
    EXPECT_EQ(a.deadline_ms, 77u);
    // deadline_ms 0 omits the field entirely: deadline-free request bytes are
    // identical to the pre-deadline protocol (cache keys stay stable).
    EXPECT_EQ(build_solve_request(m, "d1", 0), build_solve_request(m, "d1"));
    EXPECT_EQ(build_solve_request(m, "d1").find("deadline_ms"), std::string::npos);
    EXPECT_EQ(parse_request(build_solve_request(m, "d1")).deadline_ms, 0u);
}

TEST(RequestParsing, RejectsMalformedDeadlines) {
    EXPECT_THROW((void)parse_request(R"({"op":"ping","deadline_ms":-5})"),
                 ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"ping","deadline_ms":"soon"})"),
                 ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"ping","deadline_ms":1.5})"),
                 ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"ping","deadline_ms":true})"),
                 ProtocolError);
    EXPECT_THROW((void)parse_request(R"({"op":"ping","deadline_ms":[1]})"),
                 ProtocolError);
}

TEST(Responses, OverloadEnvelopesRoundTripUnderEverySplit) {
    const std::string shed = hap::service::overloaded_response("q9", 75, "busy");
    const Json j = Json::parse(shed);
    EXPECT_FALSE(j.at("ok").as_bool());
    EXPECT_EQ(j.at("id").as_string(), "q9");
    EXPECT_EQ(j.at("code").as_string(), "overloaded");
    EXPECT_EQ(j.at("retry_after_ms").as_uint(), 75u);
    EXPECT_EQ(j.at("error").as_string(), "busy");

    const std::string late = hap::service::deadline_exceeded_response("q10");
    const Json d = Json::parse(late);
    EXPECT_FALSE(d.at("ok").as_bool());
    EXPECT_EQ(d.at("code").as_string(), "deadline_exceeded");

    // Every split position of the two-frame stream reassembles identically —
    // a shed frame racing a deadline frame survives any TCP segmentation.
    const std::string stream = encode_frame(shed) + encode_frame(late);
    for (std::size_t split = 0; split <= stream.size(); ++split) {
        FrameReader r;
        r.feed(std::string_view(stream).substr(0, split));
        std::vector<std::string> got;
        while (auto b = r.next()) got.push_back(*b);
        r.feed(std::string_view(stream).substr(split));
        while (auto b = r.next()) got.push_back(*b);
        ASSERT_FALSE(r.failed()) << "split at " << split;
        ASSERT_EQ(got.size(), 2u) << "split at " << split;
        EXPECT_EQ(got[0], shed);
        EXPECT_EQ(got[1], late);
    }
}

TEST(Responses, ApproxQualityPayloadRoundTrips) {
    Json p = Json::object();
    p.set("source", Json::string("approx"));
    p.set("quality", Json::string("approx"));
    p.set("distance", Json::number(0.012));
    const Json j = Json::parse(hap::service::ok_response("q11", p));
    EXPECT_TRUE(j.at("ok").as_bool());
    EXPECT_EQ(j.at("quality").as_string(), "approx");
    EXPECT_EQ(j.at("distance").as_number(), 0.012);
}

TEST(Responses, EnvelopesAreWellFormed) {
    const Json ok = Json::parse(hap::service::ok_response("q1", [] {
        Json p = Json::object();
        p.set("pong", Json::boolean(true));
        return p;
    }()));
    EXPECT_TRUE(ok.at("ok").as_bool());
    EXPECT_EQ(ok.at("id").as_string(), "q1");
    EXPECT_TRUE(ok.at("pong").as_bool());

    const Json err =
        Json::parse(hap::service::error_response("q2", "bad-request", "nope"));
    EXPECT_FALSE(err.at("ok").as_bool());
    EXPECT_EQ(err.at("id").as_string(), "q2");
    EXPECT_EQ(err.at("code").as_string(), "bad-request");
    EXPECT_EQ(err.at("error").as_string(), "nope");
}

// The answer writer splices stored result bytes instead of serializing a
// Json tree; its bytes must be exactly what ok_response writes for the same
// members, for every envelope shape the daemon answers with.
TEST(Responses, AnswerWriterMatchesOkResponseForEveryShape) {
    const std::string result =
        R"({"mean_delay":0.30000000000000004,"states":120,"converged":true,"sigma":null})";
    const auto via_json = [&](const std::string& id, const Answer& a) {
        Json p = Json::object();
        p.set("source", Json::string(a.source));
        p.set("quality", Json::string(a.quality));
        if (a.batch > 1) p.set("batch", Json::integer(static_cast<std::uint64_t>(a.batch)));
        if (a.distance.has_value()) p.set("distance", Json::number(*a.distance));
        p.set("result", Json::parse(a.result));
        return ok_response(id, p);
    };
    const std::vector<Answer> shapes = {
        {"hit", "ok", 1, std::nullopt, result},
        {"hit", "degraded", 1, std::nullopt, result},
        {"cold", "ok", 1, std::nullopt, R"({"admit":true,"stable":false})"},
        {"warm", "clamped", 6, std::nullopt, result},
        {"approx", "approx", 1, 0.012, result},
        {"approx", "approx", 1, 1e-300, result},
        {"approx", "approx", 1, std::numeric_limits<double>::infinity(), result},
    };
    const std::vector<std::string> ids = {"", "q1", "quote\"back\\slash\nctl\x01", "\xc3\xa9"};
    for (const Answer& a : shapes) {
        for (const std::string& id : ids) {
            EXPECT_EQ(answer_response(id, a), via_json(id, a))
                << a.source << "/" << a.quality << " id=" << id;
        }
    }
    EXPECT_EQ(answer_response("q", shapes[3]),
              std::string(R"({"ok":true,"id":"q","source":"warm","quality":"clamped",)") +
                  R"("batch":6,"result":)" + result + "}");
    EXPECT_EQ(answer_response("", shapes[6]),
              std::string(R"({"ok":true,"source":"approx","quality":"approx",)") +
                  R"("distance":null,"result":)" + result + "}");
}

}  // namespace
