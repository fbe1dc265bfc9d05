// Process-wide helper team for fine-grained parallel loops.
//
// parallel_for spawns its workers per call, which is right for replications
// (seconds of work per job) and far too slow for a loop that runs thousands
// of times a second: the Solution 0 lattice sweep, a few hundred us each. The
// team is the resident counterpart for that grain. It holds one helper
// thread per CPU of the process's affinity mask but two (so with the caller,
// a thread per CPU but one), started on first use and kept for the life of
// the process.
//
// Placement: each helper is bound to a CPU of its own, never the lease
// holder's. Left to the kernel, the helpers often stack on the caller's CPU,
// where a sweep whose threads wait on each other every few microseconds
// runs at the speed of time slices. Each job reads the holder's CPU and
// moves the helper it landed on, if any, to the spare CPU; where binding is
// refused, the helpers run unbound.
//
// Idle wait: a helper between jobs spins 50 us, then yields its CPU between
// looks until 5 ms have passed, then parks on std::atomic::wait, so an idle
// team uses no CPU and a thread that lands on a helper's CPU waits
// microseconds, not a time slice.
//
// One caller at a time leases the team (TeamLease). A caller that finds it
// leased gets an empty lease and runs on its own thread, so concurrent
// solves never queue behind each other. Whether the holder's next job runs
// on the team or alone is measured, not guessed (TeamPolicy): the threads
// of a sweep wait on each other every few microseconds, so on a busy host
// one preempted helper can make a team sweep ten times slower than one
// thread. The team syncs through atomics only: no mutex, no condition
// variable.
//
// The team promises nothing about which helper runs which index. Callers
// that need the same bytes at any team size (the lattice sweep does) make
// each index's effect independent of the thread that runs it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

namespace hap::parallel {

// A count that one thread advances and others wait to reach. A waiter
// spins for a few tens of microseconds, then yields its core between looks,
// so that a waiter whose partner was preempted lets other work run. It does
// not park: waking a parked thread on an idle virtual CPU can take longer
// than the step it waits for.
class Progress {
public:
    std::uint32_t get() const noexcept { return value_.load(std::memory_order_acquire); }

    // Release the caller's writes. set() is for the one thread that owns the
    // count, add() for several.
    void set(std::uint32_t v) noexcept { value_.store(v, std::memory_order_release); }
    void add(std::uint32_t n) noexcept { value_.fetch_add(n, std::memory_order_release); }

    // Return once the count is at least `target`, acquiring the writes
    // released before it got there.
    void wait_at_least(std::uint32_t target) const noexcept {
        if (get() < target) wait_slow(target);
    }

private:
    void wait_slow(std::uint32_t target) const noexcept;

    std::atomic<std::uint32_t> value_{0};
};

// Team or alone, chosen by timing both. Jobs run on the preferred side; the
// other side is re-timed (a probe) once they have taken 1, 2, 4 ... kMaxGap
// times as long as the last probe, so probes cost at most 1 / kMaxGap of
// the time. A probe is compared with the preferred side's mean cost on jobs
// of the same size (a rare stall moves it little, a run of them a lot), and
// the team is preferred while these team / alone ratios, clamped to
// [1/4, 4] and averaged with halving weights, stay below 1: one lucky team
// sweep on a busy host does not outweigh a stalled one, and one stall (two
// solves racing) is outweighed by a few fast probes after it. A flip
// restarts the back-off at 1, so the old side is re-timed at once; any
// other probe doubles it. The team holds one; only the lease holder
// touches it.
class TeamPolicy {
public:
    static constexpr double kMaxGap = 64.0;

    // Whether the next job, of `size` units of work, runs on the team.
    bool use_team(std::size_t size) noexcept {
        same_size_ = size == size_;
        probing_ = spent_ >= gap_ * probe_ && same_size_;
        size_ = size;
        return team_ != probing_;
    }

    // What the job use_team() planned cost: positive, in any one unit.
    void record(double cost) noexcept {
        if (!probing_) {
            spent_ += cost;
            mean_ = same_size_ ? mean_ + (cost - mean_) / 16.0 : cost;
            return;
        }
        const double ratio = std::clamp(team_ ? mean_ / cost : cost / mean_, 0.25, 4.0);
        ratio_ = ratio_ > 0.0 ? (ratio_ + ratio) / 2.0 : ratio;
        const bool flip = (ratio_ < 1.0) != team_;
        team_ = team_ != flip;
        gap_ = flip ? 1.0 : std::min(2.0 * gap_, kMaxGap);
        if (flip) mean_ = cost;
        probe_ = cost;
        spent_ = 0.0;
    }

    bool prefers_team() const noexcept { return team_; }

private:
    bool team_ = true;
    bool probing_ = false;
    bool same_size_ = false;
    std::size_t size_ = 0;  // the last planned job's
    double mean_ = 0.0;     // preferred jobs' cost, weight 1/16 on the last
    double probe_ = 0.0;    // the last probe's cost
    double spent_ = 0.0;    // on the preferred side since the last probe
    double gap_ = 1.0;
    double ratio_ = 0.0;    // averaged team / alone cost; 0 before a probe
};

class TeamLease {
public:
    // Takes the process-wide team if `take` and no other lease holds it
    // (starting it on first use); otherwise the lease is empty.
    explicit TeamLease(bool take = true);
    ~TeamLease();
    TeamLease(const TeamLease&) = delete;
    TeamLease& operator=(const TeamLease&) = delete;

    // False when the lease is empty.
    bool held() const noexcept { return held_; }

    // Threads run() may use: the helpers plus the caller, 1 when empty.
    std::size_t threads() const noexcept { return threads_; }

    // Whether the team's TeamPolicy currently prefers the team to one
    // thread: false when the lease is empty or the team has no helpers. For
    // untimed jobs that follow the policy's choice without feeding it.
    bool prefers_team() const noexcept;

    // Run job(t) once on the calling thread, with t = threads() or 1,
    // whichever the team's TeamPolicy picks for jobs of `size`, and time it
    // for the policy (after waking helpers that may have parked, so a
    // one-off wake-up is not timed as the team's). An empty lease, or a team
    // without helpers, passes 1. Returns true when the job ran alone
    // because the team measured slower.
    template <typename Job>
    bool run_timed(std::size_t size, Job& job) {
        return run_timed_raw(
            size, [](void* ctx, std::size_t t) { (*static_cast<Job*>(ctx))(t); }, &job);
    }

    // Run fn(w) for every w in [0, n): w = 0 on the calling thread, the rest
    // on helpers. Returns when every call has returned. n must not exceed
    // threads() (std::invalid_argument otherwise), so every call has a
    // thread of its own and calls may wait on each other. fn must not throw
    // (a throw on a helper terminates the process).
    template <typename Fn>
    void run(std::size_t n, Fn& fn) {
        run_raw(n, [](void* ctx, std::size_t w) { (*static_cast<Fn*>(ctx))(w); }, &fn);
    }

private:
    bool run_timed_raw(std::size_t size, void (*job)(void*, std::size_t), void* ctx);
    void run_raw(std::size_t n, void (*fn)(void*, std::size_t), void* ctx);

    bool held_ = false;
    std::size_t threads_ = 1;  // helpers + caller when held
};

}  // namespace hap::parallel
