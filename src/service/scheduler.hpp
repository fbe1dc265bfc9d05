// SolveScheduler — hapd's solve-queue policy (DESIGN.md §4j "Batching rule",
// §4l "Degradation ladder" and "Request deadlines") with no sockets, threads,
// locks or clock reads. The daemon wraps every call in its one solve mutex
// and passes the time in, so the ladder and the deadline claims are tested
// without sleeps (tests/scheduler_test.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "service/protocol.hpp"

namespace hap::service {

using SchedClock = std::chrono::steady_clock;

// Overload ladder rung, picked from the solve depth at admission.
enum class Rung { Solve, Degrade, Shed };

struct Admission {
    Rung rung = Rung::Solve;
    std::size_t depth = 0;  // solve depth counting this request
};

// The answer every claimant of one point receives. The leader writes
// `error` or `answer` outside the lock, BEFORE finish() sets done under it,
// so a woken claimant reads them race-free. `claims` counts the clients
// still waiting for this answer.
struct Waiter {
    bool done = false;
    std::size_t claims = 0;
    std::string error;  // non-empty = solve failed
    Answer answer;      // the reply otherwise
};

// One distinct operating point queued for a round; bit-equal keys share it.
struct SolvePoint {
    std::string key;
    ModelSpec model;  // model.lambda is the continuation coordinate
    std::shared_ptr<Waiter> waiter;
};

// Misses batch in buckets of (family, clamped): clamped misses batch apart
// so a clamped chain never feeds an unclamped one.
struct Claim {
    std::string family;
    bool clamped = false;
    std::shared_ptr<Waiter> waiter;
    bool leader = false;  // this client runs the bucket's rounds
};

enum class ClaimState { Waiting, Answered, Expired };

struct Round {
    std::vector<SolvePoint> points;  // sorted by (lambda, key); empty = bucket idle
    std::size_t expired = 0;         // zero-claim points dropped by this take
};

class SolveScheduler {
public:
    // Thresholds with ServeOptions' 0 = derived-from-threads already resolved.
    SolveScheduler(std::size_t degrade_depth, std::size_t shed_depth)
        : degrade_depth_(degrade_depth), shed_depth_(shed_depth) {}

    // Take a depth slot and pick the rung: past shed_depth the request is
    // shed and takes no slot; past degrade_depth it degrades.
    Admission admit();
    // Give back an admitted request's depth slot (every exit but shed).
    void release() { --depth_; }
    std::size_t depth() const { return depth_; }

    // Queue a miss in its bucket and claim the point's answer; the first
    // claimant of an idle bucket becomes its leader.
    Claim join(const ModelSpec& model, bool clamped);
    // Leader: the bucket's next round, minus points nobody claims any more.
    // An empty round idles the bucket, and the leader is done.
    Round take(const Claim& leader);
    // Leader: publish a round's answers.
    void finish(const std::vector<SolvePoint>& points);
    // Follower, once its wait ends: Answered if finished; else Expired, giving
    // the claim up, if `now` has reached `deadline`; else Waiting. A claim
    // settles once.
    ClaimState settle(const Claim& claim, SchedClock::time_point deadline,
                      SchedClock::time_point now);

private:
    using Bucket = std::pair<std::string, bool>;
    std::size_t degrade_depth_;
    std::size_t shed_depth_;
    std::size_t depth_ = 0;  // misses between admission and answer
    std::map<Bucket, std::vector<SolvePoint>> pending_;
    std::set<Bucket> in_flight_;
};

}  // namespace hap::service
