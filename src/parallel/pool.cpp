#include "parallel/pool.hpp"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace hap::parallel {

// Plain std::mutex, not the annotated core::Mutex: the workers block on a
// condition variable, and neither std::unique_lock nor condition_variable
// carries thread-safety-analysis attributes in libstdc++, so annotating this
// file would only force blanket opt-outs. Nothing here is reachable without
// the lock; the structure is the textbook one-queue/one-cv pool.
struct Pool::Impl {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    std::size_t max_queue = 0;  // 0 = unbounded
    bool stopping = false;      // drop pending jobs, stop after current
    bool draining = false;      // run pending jobs, then stop
    std::vector<std::thread> workers;
    std::function<void(std::exception_ptr)> on_error;

    void worker_loop() {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return stopping || draining || !queue.empty(); });
                if (stopping) return;  // pending jobs are dropped by contract
                if (queue.empty()) return;  // draining and nothing left
                job = std::move(queue.front());
                queue.pop_front();
            }
            try {
                job();
            } catch (...) {
                if (on_error) on_error(std::current_exception());
            }
        }
    }
};

Pool::Pool(std::size_t threads, std::function<void(std::exception_ptr)> on_error,
           std::size_t max_queue)
    : impl_(new Impl) {
    impl_->on_error = std::move(on_error);
    impl_->max_queue = max_queue;
    if (threads == 0) threads = 1;
    impl_->workers.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

Pool::~Pool() {
    shutdown();
    delete impl_;
}

bool Pool::submit(std::function<void()> job) {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->stopping || impl_->draining) return false;
        if (impl_->max_queue > 0 && impl_->queue.size() >= impl_->max_queue)
            return false;  // bounded queue full: the caller sheds explicitly
        impl_->queue.push_back(std::move(job));
    }
    impl_->cv.notify_one();
    return true;
}

void Pool::shutdown() {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->stopping) {
            // Second caller: workers are already stopping; fall through to
            // join below only from the thread that owns the joinable handles.
        }
        impl_->stopping = true;
    }
    impl_->cv.notify_all();
    for (std::thread& t : impl_->workers)
        if (t.joinable()) t.join();
    impl_->workers.clear();
}

void Pool::drain() {
    {
        const std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->stopping) return;  // shutdown already dropped the queue
        impl_->draining = true;
    }
    impl_->cv.notify_all();
    for (std::thread& t : impl_->workers)
        if (t.joinable()) t.join();
    impl_->workers.clear();
    // The pool is finished: later submit()/shutdown() calls are cheap no-ops.
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
}

std::size_t Pool::threads() const noexcept { return impl_->workers.size(); }

}  // namespace hap::parallel
