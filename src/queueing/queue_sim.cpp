#include "queueing/queue_sim.hpp"

#include "obs/metrics.hpp"

namespace hap::queueing {

void emit_queue_sim_metrics(const QueueSimResult& res) {
    // Batched at run end so the event loop itself never touches the registry.
    if (!obs::enabled()) return;
    obs::MetricsRegistry& reg = obs::registry();
    reg.add_counter("queue_sim.events", res.events);
    reg.add_counter("queue_sim.arrivals", res.arrivals);
    reg.add_counter("queue_sim.losses", res.losses);
}

}  // namespace hap::queueing
