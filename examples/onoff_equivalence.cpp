// The paper's structural claim (Section 2.1): "the ON-OFF model is a 2-level
// HAP with only one message type." This example builds both sides —
//   * a population of independent exponential on-off sources, multiplexed,
//   * the 2-level HAP whose "calls" play the role of ON periods,
// and compares rate, interarrival SCV, index of dispersion, and the queue
// delay they induce. It also shows what the on-off special case CANNOT do:
// add a third (user) level and the burstiness jumps again.
#include <cstdio>
#include <vector>

#include "core/hap.hpp"
#include "queueing/queue_sim.hpp"
#include "stats/series.hpp"
#include "traffic/onoff.hpp"
#include "traffic/superposition.hpp"

namespace {

struct StreamStats {
    double rate, scv, idc_short, idc_long, delay;
};

// A template so each stream runs the queue kernel with its own concrete type.
template <typename Source>
StreamStats measure(Source& src, double service_rate, std::uint64_t seed) {
    hap::sim::RandomStream rng(seed);
    hap::sim::Exponential service(service_rate);
    hap::queueing::QueueSimOptions opts;
    opts.horizon = 4e5;
    opts.warmup = 5e3;
    opts.record_arrival_times = true;
    const auto res = simulate_queue(src, service, rng, opts);
    StreamStats out{};
    out.rate = static_cast<double>(res.arrivals) / (opts.horizon - opts.warmup);
    out.scv = hap::stats::interarrival_scv(res.arrival_times);
    out.idc_short = hap::stats::index_of_dispersion(res.arrival_times, 1.0);
    out.idc_long = hap::stats::index_of_dispersion(res.arrival_times, 100.0);
    out.delay = res.delay.mean();
    return out;
}

}  // namespace

int main() {
    using namespace hap::core;

    // Call dynamics: calls begin at rate 0.5/s against a mean population of
    // 1 call... i.e. ON<->OFF churn 0.5/0.5, burst rate 2 msg/s while ON.
    const double call_arr = 0.5, call_dep = 0.5, burst = 2.0, mu = 10.0;

    // Side A: the 2-level HAP (M/M/inf population of calls).
    const HapParams two_level = HapParams::two_level(call_arr, call_dep, burst, mu);
    HapSource hap_src(two_level);

    // Side B: a multiplex of independent on-off sources with the same per-
    // call dynamics. M/M/inf is the N -> inf limit of N on-off sources each
    // contributing a vanishing share; N = 30 is close enough to watch the
    // two columns line up.
    constexpr int kSources = 30;
    std::vector<hap::traffic::ArrivalProcessPtr> sources;
    for (int i = 0; i < kSources; ++i) {
        sources.push_back(std::make_unique<hap::traffic::OnOffSource>(
            call_arr / kSources, call_dep, burst));
    }
    hap::traffic::SuperpositionSource onoff_mux(std::move(sources));

    const StreamStats a = measure(hap_src, mu, 1001);
    const StreamStats b = measure(onoff_mux, mu, 1002);

    std::printf("Two-level HAP vs multiplexed on-off (same call dynamics)\n");
    std::printf("%-22s %12s %12s\n", "", "2-level HAP", "on-off mux");
    std::printf("%-22s %12.3f %12.3f\n", "mean rate (msg/s)", a.rate, b.rate);
    std::printf("%-22s %12.3f %12.3f\n", "interarrival SCV", a.scv, b.scv);
    std::printf("%-22s %12.3f %12.3f\n", "IDC (1 s window)", a.idc_short, b.idc_short);
    std::printf("%-22s %12.3f %12.3f\n", "IDC (100 s window)", a.idc_long, b.idc_long);
    std::printf("%-22s %12.4f %12.4f\n", "queue delay (s)", a.delay, b.delay);

    // What the extra level buys: same lambda-bar, one more modulating layer.
    const HapParams three_level = HapParams::homogeneous(
        /*lambda=*/0.05, /*mu=*/0.05, /*lambda'=*/call_arr, /*mu'=*/call_dep,
        /*l=*/1, /*lambda''=*/burst, /*m=*/1, mu);
    HapSource hap3(three_level);
    const StreamStats c = measure(hap3, mu, 1003);
    std::printf("\nAdd the user level back (3-level HAP, same lambda-bar %.2f):\n",
                three_level.mean_message_rate());
    std::printf("  IDC(100 s) %.2f vs %.2f, delay %.4f vs %.4f —\n"
                "  long-range modulation the on-off model cannot express.\n",
                c.idc_long, a.idc_long, c.delay, a.delay);
    return 0;
}
