#include "parallel/team.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/parallel_for.hpp"

namespace hap::parallel {

namespace {

// How long a waiter spins before it starts yielding: far longer than a
// neighbour block's step (a few microseconds), far shorter than the time
// slice a preempted partner would otherwise wait out.
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

// Spin for kSpinWait, then yield the CPU between looks until `deadline`;
// true once pred() holds, false if the deadline passed first. A thread
// that lands on a waiter's CPU gets it within a yield, not a time slice.
template <typename Pred>
bool wait_until(std::chrono::steady_clock::time_point deadline, Pred pred) noexcept {
    if (spin_for(kSpinWait, pred)) return true;
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

}  // namespace

void Progress::wait_slow(std::uint32_t target) const noexcept {
    wait_until(std::chrono::steady_clock::time_point::max(), [&] { return get() >= target; });
}

namespace {

// How long a helper waits for its next job before it parks. It outlasts the
// gaps inside a solve (an observables check, a box growth with its
// modulating-chain solve) and between the points of a continuation sweep,
// so the helpers of a busy solver never park: waking a parked helper can
// take longer than the ~0.2 ms sweep it is woken for, and with a 0.5 ms
// wait the team sweep ran slower than one thread. The wait spins only its
// first kSpinWait and yields the CPU after that: a pure 5 ms spin held the
// CPU for a whole time slice against any thread the kernel put beside it,
// the holder included, and every team sweep there cost ~8 ms. A few ms
// after the last job, the helpers park and cost nothing.
constexpr auto kIdleWait = std::chrono::milliseconds(5);

class Team {
public:
    Team() : cpus_(usable_cpus()), binding_(!cpus_.empty()) {
        const std::size_t n = cpus_.empty() ? std::thread::hardware_concurrency() : cpus_.size();
        const std::size_t helpers = n > 2 ? n - 2 : 0;
        slots_ = std::make_unique<Slot[]>(helpers);
        helper_cpu_.assign(helpers, -1);
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
        place();
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

    // Keep each helper on a CPU of its own, off the holder's (team.hpp).
    // Helpers bound once lose the gain as soon as the unbound holder
    // settles on one of their CPUs, so a job that finds the holder on a new
    // CPU first moves the helper it landed on to a CPU no thread of the
    // team uses; there is one, as the team has a thread per CPU but one.
    void place() noexcept {
        if (!binding_) return;
        const int cpu = sched_getcpu();
        if (cpu < 0 || cpu == holder_cpu_) return;
        holder_cpu_ = cpu;
        for (std::size_t h = 0; h < helper_cpu_.size(); ++h) {
            if (helper_cpu_[h] >= 0 && helper_cpu_[h] != cpu) continue;
            const int spare = spare_cpu();
            if (spare < 0 || !bind(h, spare)) {
                for (std::size_t u = 0; u < helper_cpu_.size(); ++u) bind(u, -1);
                binding_ = false;
                return;
            }
            helper_cpu_[h] = spare;
        }
    }

    // The first usable CPU that neither the holder nor a helper is on.
    int spare_cpu() const noexcept {
        for (const int c : cpus_) {
            bool used = c == holder_cpu_;
            for (const int b : helper_cpu_) used = used || b == c;
            if (!used) return c;
        }
        return -1;
    }

    // Bind helper h to `cpu`, or to every usable CPU when cpu < 0.
    bool bind(std::size_t h, int cpu) noexcept {
        cpu_set_t mask;
        CPU_ZERO(&mask);
        for (const int c : cpus_)
            if (cpu < 0 || c == cpu) CPU_SET(c, &mask);
        return pthread_setaffinity_np(threads_[h].native_handle(), sizeof mask, &mask) == 0;
    }

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
        if (wait_until(std::chrono::steady_clock::now() + kIdleWait, changed))
            return generation.load(std::memory_order_acquire);
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
    // Placement, the holder's alone: the usable CPUs, the holder's at the
    // last job, each helper's (-1 until bound), and false once a bind has
    // been refused.
    const std::vector<int> cpus_;
    int holder_cpu_ = -1;
    std::vector<int> helper_cpu_;
    bool binding_;
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

bool TeamLease::prefers_team() const noexcept {
    return threads_ > 1 && team().policy.prefers_team();
}

bool TeamLease::run_timed_raw(std::size_t size, void (*job)(void*, std::size_t), void* ctx) {
    if (threads_ == 1) {
        job(ctx, 1);
        return false;
    }
    Team& t = team();
    const bool use_team = t.policy.use_team(size);
    auto start = std::chrono::steady_clock::now();
    if (use_team && start - t.last_job_end > kIdleWait) {
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
