// hapd wire protocol: length-prefixed frames over a byte stream.
//
// A frame is a 4-byte little-endian unsigned body length followed by exactly
// that many bytes of UTF-8 JSON (one request or response object). The length
// prefix makes framing trivial to validate before any payload is touched:
//
//   [u32 LE length][length bytes of JSON]
//
// Hard limits (enforced BEFORE allocation): a length of zero and a length
// beyond kMaxFrameBody are both protocol errors — the decoder reports them
// without consuming the bogus body, and the server answers a structured
// error frame and drops the connection (stream state past a bad prefix is
// unknowable). Malformed JSON inside a well-framed body leaves the stream
// intact: the server answers an error frame and keeps the connection.
//
// Requests:  {"op":"ping"|"solve"|"admission"|"metrics"|"shutdown",
//             "id":<string, echoed verbatim>,
//             "deadline_ms":<optional nonneg int; 0/absent = no deadline>,
//             ...op-specific fields}
// Responses: {"ok":true,"id":...,...}  |  {"ok":false,"id":...,
//             "code":<machine tag>,"error":<human text>,...}
//
// Overload semantics (PR 10, DESIGN.md §4l): `deadline_ms` is a RELATIVE
// deadline — the client gives the server that many milliseconds from request
// receipt; a request still queued when it expires is answered
// {"code":"deadline_exceeded"} without spending a solve. A connection or
// request shed by the admission governor is answered {"code":"overloaded",
// "retry_after_ms":<int hint>} and the client's backoff honors the hint.
// Degraded answers carry "quality":"approx" (nearest cached neighbor, with
// "distance" = relative coordinate gap) or "quality":"clamped" (solved under
// the reduced overload budget) instead of "ok".
//
// This header is transport-agnostic (pure bytes in / frames out) so the
// decoder can be fuzzed without a socket; the fd-level helpers live in
// server.cpp / client.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/admission.hpp"
#include "core/hap_params.hpp"
#include "experiment/json.hpp"

namespace hap::service {

// Cap on a frame body. Requests are small parameter tuples and
// responses small result objects; a megabyte is already absurdly generous.
inline constexpr std::uint32_t kMaxFrameBody = 1u << 20;

inline constexpr std::size_t kFrameHeaderBytes = 4;

// Thrown by request parsing/validation; the server maps it to a structured
// error response with code "bad-request".
class ProtocolError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Serialize one frame (header + body). Throws ProtocolError when body is
// empty or exceeds kMaxFrameBody.
std::string encode_frame(std::string_view body);

// Incremental frame decoder. Feed arbitrary byte chunks; next() yields
// complete bodies in order. A zero or oversized length prefix puts the
// decoder into a sticky error state (error() non-empty, next() forever
// nullopt): past a bad prefix the stream has no recoverable framing.
class FrameReader {
public:
    void feed(std::string_view bytes);
    std::optional<std::string> next();

    const std::string& error() const noexcept { return error_; }
    bool failed() const noexcept { return !error_.empty(); }
    // Bytes buffered but not yet yielded (partial header or body).
    std::size_t pending() const noexcept { return buffer_.size(); }

private:
    std::string buffer_;
    std::string error_;
};

// --- Request model ---------------------------------------------------------

// The homogeneous HAP operating point a query names: the paper's Section-4
// tuple (defaults = the baseline, exactly like hapctl's model flags) plus the
// queue capacity and the Fig. 20 admission bounds. This flat spec — not the
// full HapParams tree — is what the cache keys on (see cache.hpp).
struct ModelSpec {
    double lambda = 0.0055;   // user arrival rate
    double mu = 0.001;        // user departure rate
    double lambda1 = 0.01;    // application arrival rate (per user)
    double mu1 = 0.01;        // application departure rate
    std::size_t l = 5;        // application types
    double lambda2 = 0.1;     // message rate (per active instance)
    std::size_t m = 3;        // message types
    double service = 20.0;    // message service rate == queue capacity
    std::size_t max_users = 0;
    std::size_t max_apps = 0;

    // Materialize (validated) HapParams; throws on invalid rates.
    core::HapParams params() const;
};

enum class Op { Ping, Solve, Admission, Metrics, Shutdown };

struct Request {
    Op op = Op::Ping;
    std::string id;  // echoed verbatim in the response; may be empty
    ModelSpec model;           // solve / admission
    double delay_budget = 0.0; // admission threshold; 0 = report-only
    // Relative deadline in milliseconds from server-side receipt; 0 = none.
    std::uint64_t deadline_ms = 0;

    // The shared Fig. 20 tuple this request asks about (admission op).
    core::AdmissionQuery admission_query() const;
};

// Parse one frame body into a Request. Throws ProtocolError on malformed
// JSON, unknown op, bad field types, or invalid model parameters.
Request parse_request(std::string_view body);

// Build request JSON text (client side). Model fields are always written
// explicitly so the request is self-contained. `deadline_ms` 0 omits the
// field entirely, keeping deadline-free request bytes identical to PR 8.
std::string build_solve_request(const ModelSpec& model, const std::string& id,
                                std::uint64_t deadline_ms = 0);
std::string build_admission_request(const ModelSpec& model, double delay_budget,
                                    const std::string& id,
                                    std::uint64_t deadline_ms = 0);
std::string build_simple_request(Op op, const std::string& id);

// --- Response helpers ------------------------------------------------------

std::string error_response(const std::string& id, std::string_view code,
                           std::string_view message);
// Wrap `payload`'s members into {"ok":true,"id":...,<payload members>}.
// `payload` is an object without "ok" or "id" members.
std::string ok_response(const std::string& id, const experiment::Json& payload);

// One answer to a solve or admission query (hit, warm, cold, clamped, approx).
struct Answer {
    std::string source;              // "hit" | "warm" | "cold" | "approx"
    std::string quality;             // "ok" | "degraded" | "clamped" | "approx"
    std::size_t batch = 1;           // written only when one chain answered several points
    std::optional<double> distance;  // approx answers: relative coordinate gap
    std::string result;              // compact JSON bytes of the result object
};
// {"ok":true,"id":...,"source":...,"quality":...,["batch":N,]["distance":d,]
// "result":<result bytes spliced verbatim>}: the bytes ok_response writes for
// the same members, without building or copying a Json tree. Every answer
// goes through here, so a hit's bytes are the miss reply's by construction.
std::string answer_response(const std::string& id, const Answer& answer);

// Shed frame: {"ok":false,...,"code":"overloaded","retry_after_ms":N}. The
// hint is the server's deterministic backoff floor (ServeOptions, not a
// clock), so shed responses replay byte-identically.
std::string overloaded_response(const std::string& id, std::uint64_t retry_after_ms,
                                std::string_view message);
// {"ok":false,...,"code":"deadline_exceeded"}: the request's deadline lapsed
// while it was queued; no solve was spent on it.
std::string deadline_exceeded_response(const std::string& id);

}  // namespace hap::service
