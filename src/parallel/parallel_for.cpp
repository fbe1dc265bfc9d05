#include "parallel/parallel_for.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/thread_safety.hpp"

namespace hap::parallel {

namespace {

// The ONE structure pool workers mutate concurrently. Everything else in
// parallel_for is either per-worker or a std::atomic; keeping the shared
// mutable state in a single annotated sink lets clang -Wthread-safety prove
// the locking discipline instead of the comment asserting it.
struct ErrorSink {
    core::Mutex mutex;
    std::vector<JobError> errors HAP_GUARDED_BY(mutex);

    void push(std::size_t index, std::exception_ptr error) {
        const core::MutexLock lock(mutex);
        errors.push_back({index, std::move(error)});
    }

    // Called after the pool has joined; taking the lock anyway costs one
    // uncontended acquire and keeps the function provable.
    std::vector<JobError> take() {
        const core::MutexLock lock(mutex);
        return std::move(errors);
    }
};

}  // namespace

ParallelForError::ParallelForError(std::vector<JobError> errors)
    : std::runtime_error(describe(errors)), errors_(std::move(errors)) {}

std::string ParallelForError::describe(const std::vector<JobError>& errors) {
    std::string first = "unknown error";
    if (!errors.empty() && errors.front().error) {
        try {
            std::rethrow_exception(errors.front().error);
        } catch (const std::exception& e) {
            first = e.what();
        } catch (...) {
        }
    }
    std::string msg = "parallel_for: " + std::to_string(errors.size()) +
                      " job(s) failed; first (job " +
                      std::to_string(errors.empty() ? 0 : errors.front().index) +
                      "): " + first;
    return msg;
}

std::vector<int> usable_cpus() {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof mask, &mask) != 0) return cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &mask)) cpus.push_back(c);
    return cpus;
}

std::size_t env_threads() {
    if (const char* env = std::getenv("HAP_BENCH_THREADS")) {  // haplint: allow(env-after-spawn) phase-0: read at pool construction, before workers spawn
        const long v = std::atol(env);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    const std::size_t cpus = usable_cpus().size();
    if (cpus > 0) return cpus;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (threads == 0) threads = env_threads();
    const std::size_t workers = std::min(threads, n);
    // One worker loop at every width: with a single worker nothing is
    // spawned and the calling thread claims jobs 0..n-1 in order. Every job
    // runs even after one throws, so failure sets are identical at any
    // thread count.
    ErrorSink sink;
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) return;
            try {
                fn(i);
            } catch (...) {
                sink.push(i, std::current_exception());
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(work);
    work();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
    std::vector<JobError> errors = sink.take();
    // Capture order is schedule-dependent; job-index order is not.
    std::sort(errors.begin(), errors.end(),
              [](const JobError& a, const JobError& b) { return a.index < b.index; });
    if (!errors.empty()) throw ParallelForError(std::move(errors));
}

}  // namespace hap::parallel
