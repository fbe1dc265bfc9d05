// Fast event-driven simulation of the HAP/M/1 queue (and of the bare HAP
// arrival stream). Because every HAP parameter is exponential, the whole
// system is a CTMC: the simulator tracks aggregate rates per event category
// and draws competing exponentials, which is orders of magnitude faster than
// an instance-level object simulation. The instance-level simulator
// (hap_instance_sim.hpp) cross-validates this kernel and supports
// non-exponential distributions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/hap_params.hpp"
#include "core/hap_population.hpp"
#include "sim/rng.hpp"
#include "stats/busy_period.hpp"
#include "stats/online_stats.hpp"
#include "traffic/arrival_process.hpp"

namespace hap::core {

struct HapSimOptions {
    double horizon = 1e6;  // model time
    double warmup = 0.0;
    // Buffer capacity including the message in service; 0 = infinite. With a
    // finite buffer, messages arriving to a full system are dropped and
    // counted in HapSimResult::losses (Section 6's buffer-vs-bandwidth
    // trade-off).
    std::size_t buffer_capacity = 0;
    bool record_delays = false;
    bool record_arrival_times = false;
    bool per_type_stats = false;  // per-application-type delay breakdown
    // Queue-length change hook (after warmup): (time, number in system).
    std::function<void(double, std::uint64_t)> on_queue_change;
    // Population change hook (after warmup): (time, users, total apps).
    std::function<void(double, std::uint64_t, std::uint64_t)> on_population_change;
};

struct [[nodiscard]] HapSimResult {
    stats::OnlineStats delay;
    stats::TimeWeightedStats number;       // messages in system
    stats::TimeWeightedStats users;
    stats::TimeWeightedStats apps;
    stats::BusyPeriodTracker busy{0.0};
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t losses = 0;  // drops at a full finite buffer (post-warmup)
    // CTMC transitions *executed* (incl. warmup). The final draw that lands
    // past the horizon consumes randomness but is not executed and not
    // counted — matching queueing::QueueSimResult::events.
    std::uint64_t events = 0;
    // Fraction of (post-warmup) time each admission bound was binding; a
    // blocked arrival never fires as an event in the CTMC simulation, so
    // blocking pressure is measured as time-at-bound.
    double time_at_user_bound = 0.0;
    double time_at_app_bound = 0.0;
    double horizon = 0.0;
    double utilization = 0.0;
    std::vector<double> delays;
    std::vector<double> arrival_times;
    std::vector<stats::OnlineStats> delay_by_app_type;  // iff per_type_stats
};

// Simulate the HAP/M/1 queue. Requires uniform message service rate unless
// `per_message_service` is honored: when message types carry different
// service rates, each message's service time is Exp(mu_ij) of its type.
HapSimResult simulate_hap_queue(const HapParams& params, sim::RandomStream& rng,
                                const HapSimOptions& opts = {});

// HAP as a plain arrival stream (no queue), pluggable into
// queueing::simulate_queue and the stats diagnostics.
class HapSource final : public traffic::ArrivalProcess {
public:
    explicit HapSource(HapParams params);

    double next(sim::RandomStream& rng) override;
    double mean_rate() const override;
    void reset() override;

private:
    HapParams params_;
    double time_ = 0.0;
    detail::Population pop_;
};

}  // namespace hap::core
