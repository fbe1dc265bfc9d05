// Single-server FIFO queue simulation kernel, driven by any ArrivalProcess
// and any service-time Distribution. Used for every baseline comparison
// (M/M/1, on-off/M/1, MMPP/M/1, trace-driven/M/1); the HAP-specific fast
// path lives in core/hap_sim.hpp.
//
// The kernel is a function template over the (Arrivals, Service) pair, and
// each call site's static types pick the instantiation: a caller holding a
// concrete `final` source and distribution gets next()/sample() calls that
// devirtualize and inline into the event loop, while a caller holding the
// abstract bases gets the virtual-call loop. Every instantiation performs
// the same operations on the same RandomStream in the same order, so results
// are byte-identical across instantiations.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/distributions.hpp"
#include "sim/ring_buffer.hpp"
#include "sim/rng.hpp"
#include "stats/busy_period.hpp"
#include "stats/online_stats.hpp"
#include "traffic/arrival_process.hpp"

namespace hap::queueing {

struct QueueSimOptions {
    double horizon = 1e6;   // model-time end of observation
    double warmup = 0.0;    // statistics discarded before this time
    // Buffer capacity including the job in service; 0 = infinite. Arrivals
    // to a full system are dropped and counted in QueueSimResult::losses.
    std::size_t buffer_capacity = 0;
    bool record_delays = false;         // keep per-message sojourn times
    bool record_arrival_times = false;  // keep arrival instants (IDC etc.)
    // Called on every number-in-system change (after warmup): (time, n).
    std::function<void(double, std::uint64_t)> on_change;
};

struct [[nodiscard]] QueueSimResult {
    stats::OnlineStats delay;           // sojourn times
    stats::OnlineStats wait;            // queueing times (excluding service)
    stats::TimeWeightedStats number;    // number in system over time
    stats::BusyPeriodTracker busy{0.0};
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t losses = 0;  // drops at a full finite buffer (post-warmup)
    // Events *executed* before the horizon (incl. warmup). The draw that
    // determines the first event at or past the horizon is consumed but that
    // event is not processed or counted — matching core::HapSimResult.
    std::uint64_t events = 0;
    double horizon = 0.0;
    double utilization = 0.0;           // fraction of time server busy
    std::vector<double> delays;         // iff record_delays
    std::vector<double> arrival_times;  // iff record_arrival_times
};

// Batched obs-registry emission; defined in queue_sim.cpp so the template
// below does not drag obs/metrics.hpp into every includer.
void emit_queue_sim_metrics(const QueueSimResult& res);

namespace detail {

// The event loop, shared by every (Arrivals, Service) instantiation. Split
// into a warmup phase with every guard live and a steady-state phase where
// warmup comparisons — and, without an on_change hook, the std::function
// check — are compiled out. Event times are nondecreasing, so once the next
// event lies at or past the warmup point every later one does too; only the
// per-message `arrived >= warmup` check must stay (messages admitted before
// warmup can depart after it).
template <typename Arrivals, typename Service>
class QueueKernel {
public:
    QueueKernel(Arrivals& arrivals, const Service& service,
                sim::RandomStream& rng, const QueueSimOptions& opts,
                QueueSimResult& res)
        : arrivals_(arrivals),
          service_(service),
          rng_(rng),
          opts_(opts),
          res_(res),
          number_(res.number),
          busy_(res.busy) {
        cap_ = opts.buffer_capacity > 0 ? opts.buffer_capacity
                                        : std::numeric_limits<std::size_t>::max();
        next_arrival_ = arrivals_.next(rng_);
    }

    void run() {
        const bool hooks = static_cast<bool>(opts_.on_change);
        bool alive = true;
        while (alive && peek() < opts_.warmup) alive = step<false, true>();
        if (alive) {
            if (hooks)
                while (step<true, true>()) {}
            else
                while (step<true, false>()) {}
        }
        res_.events = events_;
        res_.arrivals = arrival_count_;
        res_.departures = departures_;
        res_.losses = losses_;
        res_.delay = delay_;
        res_.wait = wait_;
        res_.number = number_;
        res_.busy = busy_;
    }

private:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    double peek() const noexcept {
        return next_arrival_ <= next_departure_ ? next_arrival_ : next_departure_;
    }

    template <bool kSteady, bool kHooks>
    void emit_change(std::uint64_t n) {
        if constexpr (!kSteady)
            if (now_ < opts_.warmup) return;
        number_.update(now_, static_cast<double>(n));
        busy_.observe(now_, n);
        if constexpr (kHooks)
            if (opts_.on_change) opts_.on_change(now_, n);
    }

    // One arrival or departure; returns false once the next event would fall
    // at or past the horizon ("events executed" are counted, the horizon
    // crosser is not).
    template <bool kSteady, bool kHooks>
    bool step() {
        const bool arrival_first = next_arrival_ <= next_departure_;
        const double t = arrival_first ? next_arrival_ : next_departure_;
        if (t >= opts_.horizon || t == kInf) return false;  // haplint: allow(float-equality) kInf is an exact sentinel, not a measurement
        now_ = t;
        ++events_;

        if (arrival_first) {
            if (in_system_.size() >= cap_) {
                if (kSteady || now_ >= opts_.warmup) ++losses_;
                next_arrival_ = arrivals_.next(rng_);
                return true;
            }
            in_system_.push_back(now_);
            if (in_system_.size() == 1) {
                service_start_wait_ = 0.0;
                next_departure_ = now_ + service_.sample(rng_);
            }
            if (kSteady || now_ >= opts_.warmup) {
                ++arrival_count_;
                if (opts_.record_arrival_times) res_.arrival_times.push_back(now_);
            }
            emit_change<kSteady, kHooks>(in_system_.size());
            next_arrival_ = arrivals_.next(rng_);
        } else {
            const double arrived = in_system_.pop_front();
            if (arrived >= opts_.warmup) {
                const double sojourn = now_ - arrived;
                delay_.add(sojourn);
                wait_.add(service_start_wait_);
                if (opts_.record_delays) res_.delays.push_back(sojourn);
                ++departures_;
            }
            if (!in_system_.empty()) {
                service_start_wait_ = now_ - in_system_.front();
                next_departure_ = now_ + service_.sample(rng_);
            } else {
                next_departure_ = kInf;
            }
            emit_change<kSteady, kHooks>(in_system_.size());
        }
        return true;
    }

    Arrivals& arrivals_;
    const Service& service_;
    sim::RandomStream& rng_;
    const QueueSimOptions& opts_;
    QueueSimResult& res_;

    sim::RingBuffer<double> in_system_;  // arrival time of each queued message
    double next_arrival_ = 0.0;
    double next_departure_ = kInf;
    double service_start_wait_ = 0.0;  // wait of the message now in service
    double now_ = 0.0;
    std::size_t cap_ = 0;

    std::uint64_t events_ = 0;
    std::uint64_t arrival_count_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t losses_ = 0;
    stats::OnlineStats delay_;
    stats::OnlineStats wait_;
    stats::TimeWeightedStats number_;
    stats::BusyPeriodTracker busy_;
};

}  // namespace detail

// Run the FIFO kernel. Arrivals/Service are the static types at the call
// site: concrete `final` types (PoissonSource, core::HapSource,
// sim::Exponential, ...) run without virtual dispatch in the inner loop,
// traffic::ArrivalProcess / sim::Distribution run through the virtual
// interfaces, with identical draws either way.
template <typename Arrivals, typename Service>
QueueSimResult simulate_queue(Arrivals& arrivals, const Service& service,
                              sim::RandomStream& rng,
                              const QueueSimOptions& opts = {}) {
    QueueSimResult res;
    res.horizon = opts.horizon;
    res.number = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.busy = stats::BusyPeriodTracker(opts.warmup);

    detail::QueueKernel<Arrivals, Service> kernel(arrivals, service, rng, opts,
                                                  res);
    kernel.run();

    res.number.finish(opts.horizon);
    res.busy.finish(opts.horizon);
    res.utilization = res.busy.busy_fraction();
    emit_queue_sim_metrics(res);
    return res;
}

}  // namespace hap::queueing
