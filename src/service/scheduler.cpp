#include "service/scheduler.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "service/cache.hpp"

namespace hap::service {

Admission SolveScheduler::admit() {
    const std::size_t depth = depth_ + 1;
    if (depth > shed_depth_) return {Rung::Shed, depth};
    depth_ = depth;
    return {depth > degrade_depth_ ? Rung::Degrade : Rung::Solve, depth};
}

Claim SolveScheduler::join(const ModelSpec& model, bool clamped) {
    Claim claim;
    claim.family = solve_family(model);
    claim.clamped = clamped;
    const Bucket bucket{claim.family, clamped};
    std::string key = solve_key(model);
    std::vector<SolvePoint>& queue = pending_[bucket];
    const auto same = std::find_if(queue.begin(), queue.end(),
                                   [&](const SolvePoint& p) { return p.key == key; });
    if (same != queue.end()) {
        claim.waiter = same->waiter;  // identical pending query: share one solve
    } else {
        claim.waiter = std::make_shared<Waiter>();
        queue.push_back(SolvePoint{std::move(key), model, claim.waiter});
    }
    claim.waiter->claims += 1;
    claim.leader = in_flight_.insert(bucket).second;
    return claim;
}

Round SolveScheduler::take(const Claim& leader) {
    const Bucket bucket{leader.family, leader.clamped};
    Round round;
    for (SolvePoint& p : pending_[bucket]) {
        if (p.waiter->claims == 0) {
            ++round.expired;  // every claimant gave up: spend no solve
        } else {
            round.points.push_back(std::move(p));
        }
    }
    pending_.erase(bucket);
    if (round.points.empty()) {
        in_flight_.erase(bucket);
        return round;
    }
    // Deterministic grid: ascending continuation coordinate, key breaking
    // exact ties.
    std::sort(round.points.begin(), round.points.end(),
              [](const SolvePoint& a, const SolvePoint& b) {
                  return std::tie(a.model.lambda, a.key) <
                         std::tie(b.model.lambda, b.key);
              });
    return round;
}

void SolveScheduler::finish(const std::vector<SolvePoint>& points) {
    for (const SolvePoint& p : points) p.waiter->done = true;
}

ClaimState SolveScheduler::settle(const Claim& claim, SchedClock::time_point deadline,
                                  SchedClock::time_point now) {
    if (claim.waiter->done) return ClaimState::Answered;
    if (now < deadline) return ClaimState::Waiting;
    // A point still pending with no claims left is dropped by the next take.
    claim.waiter->claims -= 1;
    return ClaimState::Expired;
}

}  // namespace hap::service
