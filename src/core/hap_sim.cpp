#include "core/hap_sim.hpp"

#include <cstdint>
#include <limits>

#include "obs/metrics.hpp"
#include "sim/ring_buffer.hpp"

namespace hap::core {

namespace {

struct QueuedMsg {
    double arrival;
    double service_rate;
    std::uint32_t app_type;
};

// The HAP/M/1 event engine: the population kernel (hap_population.hpp) plus
// the message queue. Three structural invariants keep every output
// byte-identical to the historical per-event-rebuild loop while removing its
// per-event costs:
//
//   * Incremental rates. The category table is the kernel's population
//     categories with service completion appended last, at index
//     pop_.categories(). The kernel rebuilds its part — with the exact
//     left-to-right reduction order of the old loop — only on population
//     events (~a few % of all events). Arrival/service events can only
//     change the service-head entry, so their total is the cached base sum
//     plus that one entry: the same float the old loop computed, because the
//     service category is the last term of the left-to-right reduction.
//   * Block RNG. Uniforms come from sim::BlockRng, which buffers draws from
//     the same distribution object in the same order and rewinds/replays the
//     stream on finish, so the consumed sequence and the stream's final
//     state both match scalar use.
//   * Phase split. The loop runs a warmup phase with every guard live, then
//     switches (once `now` passes the warmup point, i.e. every later event's
//     hold interval starts post-warmup) to a steady-state phase where warmup
//     comparisons and — when no hooks are installed — the std::function
//     checks are compiled out.
class HapEngine {
public:
    HapEngine(const HapParams& params, sim::RandomStream& rng,
              const HapSimOptions& opts, HapSimResult& res)
        : opts_(opts),
          res_(res),
          pop_(params),
          brng_(rng),
          number_(res.number),
          users_tw_(res.users),
          apps_tw_(res.apps),
          busy_(res.busy) {
        cap_ = opts.buffer_capacity > 0 ? opts.buffer_capacity
                                        : std::numeric_limits<std::size_t>::max();
        record_delays_ = opts.record_delays;
        record_arrivals_ = opts.record_arrival_times;
        per_type_ = opts.per_type_stats;
    }

    void run() {
        const bool hooks = static_cast<bool>(opts_.on_queue_change) ||
                           static_cast<bool>(opts_.on_population_change);
        // Warmup phase: every event whose hold interval starts pre-warmup.
        bool alive = true;
        while (alive && now_ < opts_.warmup) alive = step<false, true>();
        // Steady-state phase: warmup guards resolve statically; hook checks
        // vanish when no hooks are installed.
        if (alive) {
            if (hooks)
                while (step<true, true>()) {}
            else
                while (step<true, false>()) {}
        }
        res_.events = events_;
        res_.arrivals = arrivals_;
        res_.departures = departures_;
        res_.losses = losses_;
        res_.number = number_;
        res_.users = users_tw_;
        res_.apps = apps_tw_;
        res_.busy = busy_;
        brng_.finish();  // leave the caller's stream exactly as scalar draws would
    }

private:
    template <bool kSteady, bool kHooks>
    void queue_changed() {
        if constexpr (!kSteady)
            if (now_ < opts_.warmup) return;
        number_.update(now_, static_cast<double>(queue_.size()));
        busy_.observe(now_, queue_.size());
        if constexpr (kHooks)
            if (opts_.on_queue_change) opts_.on_queue_change(now_, queue_.size());
    }

    template <bool kSteady, bool kHooks>
    void population_changed() {
        if constexpr (!kSteady)
            if (now_ < opts_.warmup) return;
        users_tw_.update(now_, static_cast<double>(pop_.users()));
        apps_tw_.update(now_, static_cast<double>(pop_.total_apps()));
        if constexpr (kHooks)
            if (opts_.on_population_change)
                opts_.on_population_change(now_, pop_.users(), pop_.total_apps());
    }

    // One CTMC transition. Returns false when the run is over (horizon
    // reached or frozen system). `res_.events` counts events *executed*: the
    // draw that lands past the horizon is consumed (the draw sequence is part
    // of the golden contract) but the event it would have started is not
    // simulated and not counted.
    template <bool kSteady, bool kHooks>
    bool step() {
        // The only category a non-population event can change is the
        // service head; the total is the kernel's cached left-to-right base
        // sum plus that one entry.
        const double total = pop_.base_sum() + head_rate_;  // head_rate_ 0 when empty
        if (total <= 0.0) return false;  // frozen system (invalid params only)

        const double dt = brng_.exponential(total);
        const double hold_start = now_;
        now_ += dt;
        if (now_ >= opts_.horizon) return false;
        ++events_;
        if (kSteady || hold_start >= opts_.warmup) {
            if (pop_.at_user_bound()) res_.time_at_user_bound += dt;
            if (pop_.at_app_bound()) res_.time_at_app_bound += dt;
        }

        const std::size_t k = pop_.pick(brng_.uniform() * total, total);
        if (k == pop_.categories()) {
            // Service completion.
            const QueuedMsg msg = queue_.pop_front();
            // Unconditional load + select (slots are value-initialized, so
            // the empty-queue load is defined); compiles to a cmov instead
            // of a poorly predicted empty/non-empty branch.
            const double next_rate = queue_.front_slot().service_rate;
            head_rate_ = queue_.empty() ? 0.0 : next_rate;
            if (msg.arrival >= opts_.warmup) {
                const double sojourn = now_ - msg.arrival;
                delay_.add(sojourn);
                if (record_delays_) res_.delays.push_back(sojourn);
                if (per_type_) res_.delay_by_app_type[msg.app_type].add(sojourn);
                ++departures_;
            }
            queue_changed<kSteady, kHooks>();
        } else if (detail::Population::is_message(k)) {
            // Message arrival of application type i. Drop on a full finite
            // buffer; otherwise pick message type j proportional to
            // lambda_ij and enqueue.
            if (queue_.size() >= cap_) {
                if (kSteady || now_ >= opts_.warmup) ++losses_;
                return true;
            }
            const std::size_t i = detail::Population::app_type(k);
            const detail::RateTable& rates = pop_.rates();
            const std::uint32_t j =
                pop_.message_type(i, brng_.uniform() * rates.message_rate[i]);
            queue_.push_back(
                QueuedMsg{now_, rates.msg_service[j], static_cast<std::uint32_t>(i)});
            head_rate_ = queue_.size() == 1 ? rates.msg_service[j] : head_rate_;
            if (kSteady || now_ >= opts_.warmup) {
                ++arrivals_;
                if (record_arrivals_) res_.arrival_times.push_back(now_);
            }
            queue_changed<kSteady, kHooks>();
        } else {
            pop_.apply(k);
            population_changed<kSteady, kHooks>();
        }
        return true;
    }

public:
    stats::OnlineStats delay_;  // pooled into res_ by the caller

private:
    const HapSimOptions& opts_;
    HapSimResult& res_;
    detail::Population pop_;
    sim::BlockRng brng_;

    bool record_delays_ = false;
    bool record_arrivals_ = false;
    bool per_type_ = false;
    std::size_t cap_ = 0;

    double now_ = 0.0;
    double head_rate_ = 0.0;  // service rate of the queue head; 0 when empty
    sim::RingBuffer<QueuedMsg> queue_;

    std::uint64_t events_ = 0;
    std::uint64_t arrivals_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t losses_ = 0;

    stats::TimeWeightedStats number_;
    stats::TimeWeightedStats users_tw_;
    stats::TimeWeightedStats apps_tw_;
    stats::BusyPeriodTracker busy_;
};

}  // namespace

HapSimResult simulate_hap_queue(const HapParams& params, sim::RandomStream& rng,
                                const HapSimOptions& opts) {
    params.validate();

    HapSimResult res;
    res.horizon = opts.horizon;
    res.number = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.users = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.apps = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.busy = stats::BusyPeriodTracker(opts.warmup);
    if (opts.per_type_stats) res.delay_by_app_type.resize(params.apps.size());

    {
        HapEngine engine(params, rng, opts, res);
        engine.run();
        res.delay = engine.delay_;
    }

    res.number.finish(opts.horizon);
    res.users.finish(opts.horizon);
    res.apps.finish(opts.horizon);
    res.busy.finish(opts.horizon);
    res.utilization = res.busy.busy_fraction();
    const double observed = opts.horizon - opts.warmup;
    if (observed > 0.0) {
        res.time_at_user_bound /= observed;
        res.time_at_app_bound /= observed;
    }
    // Batched at run end so the event loop itself never touches the registry.
    if (obs::enabled()) {
        obs::MetricsRegistry& reg = obs::registry();
        reg.add_counter("hap_sim.events", res.events);
        reg.add_counter("hap_sim.arrivals", res.arrivals);
        reg.add_counter("hap_sim.departures", res.departures);
        reg.add_counter("hap_sim.losses", res.losses);
    }
    return res;
}

namespace {

const HapParams& validated(const HapParams& p) {
    p.validate();
    return p;
}

}  // namespace

HapSource::HapSource(HapParams params)
    : params_(std::move(params)), pop_(validated(params_)) {}

void HapSource::reset() {
    time_ = 0.0;
    pop_ = detail::Population(params_);
}

double HapSource::mean_rate() const { return params_.mean_message_rate(); }

double HapSource::next(sim::RandomStream& rng) {
    // No block RNG here: the caller interleaves this stream with service
    // draws (simulate_queue), so over-drawing would shift its sequence.
    for (;;) {
        const double total = pop_.base_sum();
        if (total <= 0.0) return std::numeric_limits<double>::infinity();
        time_ += rng.exponential(total);
        const std::size_t k = pop_.pick(rng.uniform() * total, total);
        if (k == pop_.categories()) continue;  // walk rounded past the total: no event
        if (detail::Population::is_message(k)) return time_;
        pop_.apply(k);
    }
}

}  // namespace hap::core
