// Process-wide helper team for fine-grained parallel loops.
//
// parallel_for spawns its workers per call, which is right for replications
// (seconds of work per job) and far too slow for a loop that runs thousands
// of times a second: the Solution 0 lattice sweep, a few hundred us each. The
// team is the resident counterpart for that grain. It holds
// hardware_concurrency - 2 helper threads, started on first use and kept for
// the life of the process; with the caller that is one thread per core but
// one. A helper between jobs spins for a bounded time, then parks on
// std::atomic::wait, so an idle team uses no CPU.
//
// The spare core is measured, not cautious: the threads of a lattice sweep
// wait on each other every few microseconds, so one of them preempted stalls
// them all. On a 4-core machine with one other busy thread, a continuation
// sweep on all four cores ran 2.4-4x slower than on one; on three it ran as
// fast as on an idle machine.
//
// One caller at a time leases the team (TeamLease). A caller that finds it
// leased gets an empty lease and runs on its own thread, so concurrent
// solves never queue behind each other, and the holder gives up one thread
// for each of them, for the same reason. The team syncs through atomics
// only: no mutex, no condition variable.
//
// The team promises nothing about which helper runs which index. Callers
// that need the same bytes at any team size (the lattice sweep does) make
// each index's effect independent of the thread that runs it.
#pragma once

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

class TeamLease {
public:
    // Takes the process-wide team if no other lease holds it (starting it on
    // first use); otherwise the lease is empty. Either way the lease counts
    // as one caller running until it is destroyed.
    TeamLease();
    ~TeamLease();
    TeamLease(const TeamLease&) = delete;
    TeamLease& operator=(const TeamLease&) = delete;

    // False when another lease held the team.
    bool held() const noexcept { return held_; }

    // Threads run() should use now: the helpers plus the caller, less one
    // for every other live lease, and at least 1; 1 for an empty lease.
    std::size_t workers() const noexcept;

    // Run fn(w) for every w in [0, n): w = 0 on the calling thread, the rest
    // on helpers. Returns when every call has returned. n must not exceed
    // the helpers plus the caller (std::invalid_argument otherwise), so
    // every call has a thread of its own and calls may wait on each other.
    // fn must not throw (a throw on a helper terminates the process).
    template <typename Fn>
    void run(std::size_t n, Fn& fn) {
        run_raw(n, [](void* ctx, std::size_t w) { (*static_cast<Fn*>(ctx))(w); }, &fn);
    }

private:
    void run_raw(std::size_t n, void (*fn)(void*, std::size_t), void* ctx);

    bool held_ = false;
    std::size_t threads_ = 1;  // helpers + caller when held
};

}  // namespace hap::parallel
