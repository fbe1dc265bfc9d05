#include "parallel/team.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hap::parallel {

namespace {

// How long a Progress waiter spins before it starts yielding: far longer
// than a neighbour block's step (a few microseconds), far shorter than the
// time slice a preempted partner would otherwise wait out.
constexpr auto kSpinWait = std::chrono::microseconds(50);

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

// Spin until pred() holds or `limit` has passed; true if it holds.
template <typename Pred>
bool spin_for(std::chrono::microseconds limit, Pred pred) noexcept {
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 1;; ++i) {
        if (pred()) return true;
        cpu_relax();
        if (i % 64 == 0 && std::chrono::steady_clock::now() - start > limit) return pred();
    }
}

}  // namespace

void Progress::wait_slow(std::uint32_t target) const noexcept {
    const auto reached = [&] { return get() >= target; };
    if (spin_for(kSpinWait, reached)) return;
    while (!reached()) std::this_thread::yield();
}

namespace {

// How long a helper spins for its next job before it parks. It outlasts the
// gaps inside a solve (an observables check, a box growth with its
// modulating-chain solve) and between the points of a continuation sweep,
// so the helpers of a busy solver never park: waking a parked helper can
// take longer than the ~0.2 ms sweep it is woken for, and with a 0.5 ms
// spin the team sweep ran slower than one thread. A few ms after the last
// job, the helpers park and cost nothing.
constexpr auto kSpinFor = std::chrono::milliseconds(5);

class Team {
public:
    Team() {
        const unsigned hw = std::thread::hardware_concurrency();
        const std::size_t helpers = hw > 2 ? hw - 2 : 0;
        slots_ = std::make_unique<Slot[]>(helpers);
        threads_.reserve(helpers);
        for (std::size_t h = 0; h < helpers; ++h)
            threads_.emplace_back([this, h] { helper_loop(h); });
    }

    ~Team() {
        stop_.store(true, std::memory_order_relaxed);
        for (std::size_t h = 0; h < threads_.size(); ++h) wake(h);
        for (std::thread& t : threads_) t.join();
    }

    Team(const Team&) = delete;
    Team& operator=(const Team&) = delete;

    std::size_t helpers() const noexcept { return threads_.size(); }

    // Only the lease holder reads or writes these: taking the lease
    // acquires what the last holder released.
    TeamPolicy policy;
    std::chrono::steady_clock::time_point last_job_end;

    bool try_take() noexcept { return !taken_.exchange(true, std::memory_order_acquire); }
    void give_back() noexcept { taken_.store(false, std::memory_order_release); }

    // The job fields are plain: the holder writes them before the release
    // that wakes a helper, and reads nothing back until every woken helper
    // has counted itself done.
    void run(std::size_t n, void (*fn)(void*, std::size_t), void* ctx) {
        fn_ = fn;
        ctx_ = ctx;
        done_.set(0);
        for (std::size_t w = 1; w < n; ++w) wake(w - 1);
        fn(ctx, 0);
        done_.wait_at_least(static_cast<std::uint32_t>(n - 1));
    }

private:
    struct alignas(64) Slot {
        std::atomic<std::uint32_t> generation{0};
    };

    void wake(std::size_t h) noexcept {
        slots_[h].generation.fetch_add(1, std::memory_order_release);
        slots_[h].generation.notify_one();
    }

    void helper_loop(std::size_t h) {
        std::atomic<std::uint32_t>& generation = slots_[h].generation;
        std::uint32_t seen = 0;
        for (;;) {
            seen = next_generation(generation, seen);
            if (stop_.load(std::memory_order_relaxed)) return;
            fn_(ctx_, h + 1);
            done_.add(1);
        }
    }

    static std::uint32_t next_generation(const std::atomic<std::uint32_t>& generation,
                                         std::uint32_t seen) noexcept {
        const auto changed = [&] { return generation.load(std::memory_order_acquire) != seen; };
        if (spin_for(kSpinFor, changed)) return generation.load(std::memory_order_acquire);
        for (;;) {
            generation.wait(seen, std::memory_order_acquire);
            const std::uint32_t g = generation.load(std::memory_order_acquire);
            if (g != seen) return g;
        }
    }

    std::atomic<bool> taken_{false};
    std::atomic<bool> stop_{false};
    alignas(64) Progress done_;  // helpers finished with the current job
    void (*fn_)(void*, std::size_t) = nullptr;
    void* ctx_ = nullptr;
    std::unique_ptr<Slot[]> slots_;
    std::vector<std::thread> threads_;
};

Team& team() {
    static Team t;
    return t;
}

}  // namespace

TeamLease::TeamLease(bool take) : held_(take && team().try_take()) {
    if (held_) threads_ = team().helpers() + 1;
}

TeamLease::~TeamLease() {
    if (held_) team().give_back();
}

bool TeamLease::run_timed_raw(std::size_t size, void (*job)(void*, std::size_t), void* ctx) {
    if (threads_ == 1) {
        job(ctx, 1);
        return false;
    }
    Team& t = team();
    const bool use_team = t.policy.use_team(size);
    auto start = std::chrono::steady_clock::now();
    if (use_team && start - t.last_job_end > kSpinFor) {
        // Helpers idle this long may have parked, and waking one can take
        // milliseconds on a VM: a one-off cost, not the sweep's. Wake them
        // with an empty job before the clock starts.
        t.run(threads_, [](void*, std::size_t) {}, nullptr);
        start = std::chrono::steady_clock::now();
    }
    job(ctx, use_team ? threads_ : 1);
    const auto end = std::chrono::steady_clock::now();
    if (use_team) t.last_job_end = end;
    const bool fell_back = !use_team && !t.policy.prefers_team();
    t.policy.record(std::chrono::duration<double>(end - start).count());
    return fell_back;
}

void TeamLease::run_raw(std::size_t n, void (*fn)(void*, std::size_t), void* ctx) {
    if (n > threads_) throw std::invalid_argument("TeamLease::run: more calls than threads");
    if (n == 1)
        fn(ctx, 0);
    else if (n > 1)
        team().run(n, fn, ctx);
}

}  // namespace hap::parallel
