// Blocking hapd client: connect, exchange length-prefixed frames, parse
// responses. Used by `hapctl query`, the serving test harness, and the
// protocol fuzz tests (send_raw lets a test write deliberately broken bytes).
//
// Robustness (PR 10): connects take an optional timeout (non-blocking
// connect + poll, so a wedged daemon cannot hang the caller forever), all
// socket loops retry EINTR, and call_with_retry() layers deterministic
// exponential backoff over overloaded/lost calls — same seed, same
// schedule, byte-identical replay.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.hpp"

namespace hap::service {

class Client {
public:
    // Connect to a Unix-domain socket path or to loopback TCP. Throw
    // std::runtime_error when the daemon is not there, or when it does not
    // accept within connect_timeout_ms (0 = block indefinitely).
    static Client connect_unix(const std::string& path, int connect_timeout_ms = 0);
    static Client connect_tcp(int port, const std::string& host = "127.0.0.1",
                              int connect_timeout_ms = 0);

    ~Client();
    Client(Client&& other) noexcept;
    Client& operator=(Client&& other) noexcept;
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    // One round trip: frame `body`, send, block for the next response body.
    // Throws std::runtime_error when the connection drops mid-call.
    std::string call(const std::string& body);

    // Halves of call(), for pipelined or deliberately odd exchanges.
    void send(const std::string& body);
    // Next response body; nullopt on orderly EOF. Throws on a framing error
    // in the response stream (a server never sends one; seeing it is a bug).
    std::optional<std::string> recv();

    // Write raw bytes with no framing — the fuzz tests' door.
    void send_raw(std::string_view bytes);
    // Half-close the write side (models a client vanishing mid-frame).
    void shutdown_write();

private:
    explicit Client(int fd) : fd_(fd) {}

    int fd_ = -1;
    FrameReader reader_;
};

// --- Deterministic retry / backoff -----------------------------------------

// Backoff for attempt k (0-based) is base_ms * 2^k capped at max_ms, plus a
// jitter in [0, jitter_ms] drawn from a SplitMix64 stream seeded with `seed`
// — deterministic, so a replayed client waits the exact same schedule. When
// the server's overloaded frame carries a larger retry_after_ms hint, the
// hint wins for that attempt.
struct RetryPolicy {
    std::size_t max_retries = 0;  // retries AFTER the first attempt; 0 = one shot
    std::uint64_t base_ms = 10;
    std::uint64_t max_ms = 2000;
    std::uint64_t jitter_ms = 10;
    std::uint64_t seed = 1;
};

struct CallOutcome {
    std::string body;             // final response body
    std::size_t attempts = 1;     // total attempts made
    std::uint64_t waited_ms = 0;  // total scheduled backoff
};

// One robust round trip: connect (the factory applies its own timeout), send
// `body`, await the response. An {"code":"overloaded"} reply or a transport
// failure (refused, timed out, connection lost) backs off per `policy` and
// retries on a FRESH connection. Returns the first non-overloaded response;
// when attempts run out, returns the final overloaded frame (a typed error
// the caller can render) or throws if no response was ever received.
CallOutcome call_with_retry(const std::function<Client()>& connect,
                            const std::string& body, const RetryPolicy& policy);

}  // namespace hap::service
