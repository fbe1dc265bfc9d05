// Traffic measurement-and-fitting workflow: capture an arrival trace from a
// "live" source, estimate its second-order statistics, fit parsimonious
// models (on-off, 2-level HAP), and compare the queueing predictions each
// model makes against the trace-driven truth — the methodological loop the
// paper's measurement-vs-model discussion implies.
#include <cstdio>
#include <vector>

#include "core/hap.hpp"
#include "queueing/queue_sim.hpp"
#include "stats/series.hpp"
#include "trace/arrival_log.hpp"
#include "traffic/fitting.hpp"

namespace {

// A template so each model runs the queue kernel with its own concrete type.
template <typename Source>
double queue_delay(Source& src, double mu, double horizon, std::uint64_t seed) {
    hap::sim::Exponential service(mu);
    hap::sim::RandomStream rng(seed);
    hap::queueing::QueueSimOptions opts;
    opts.horizon = horizon;
    opts.warmup = horizon * 0.02;
    return simulate_queue(src, service, rng, opts).delay.mean();
}

}  // namespace

int main() {
    using namespace hap;

    // 1. "Measure" a production-like stream: the paper's 3-level baseline,
    //    observed for ~10 model-days.
    const core::HapParams truth = core::HapParams::paper_baseline(20.0);
    core::HapSource live(truth);
    sim::RandomStream rng(99);
    std::vector<double> trace_times;
    double t = 0.0;
    while (t < 8.0e5) {
        t = live.next(rng);
        trace_times.push_back(t);
    }
    std::printf("captured %zu arrivals over %.1f model-days\n", trace_times.size(),
                trace_times.back() / 86400.0);

    // 2. Estimate stream statistics.
    const auto m = traffic::measure_moments(trace_times);
    std::printf("measured: rate %.3f msg/s, interarrival SCV %.2f, IDC %.1f\n\n",
                m.mean_rate, m.interarrival_scv, m.idc);

    // 3. Fit candidate models to (rate, IDC).
    traffic::OnOffSource onoff = traffic::fit_onoff(m.mean_rate, m.idc, 0.3);
    core::HapParams hap2 = core::fit_hap_two_level(m.mean_rate, m.idc, 2.0);
    for (auto& app : hap2.apps)
        for (auto& msg : app.messages) msg.service_rate = 20.0;
    const auto hap3 =
        core::fit_hap_three_level(m.mean_rate, m.idc, 0.3, 5, 3, 5.0, 0.5);
    core::HapParams hap3p = hap3.params;
    for (auto& app : hap3p.apps)
        for (auto& msg : app.messages) msg.service_rate = 20.0;

    // 4. Score each model by the delay it predicts on a mu = 20 server,
    //    against the trace-driven answer.
    const double horizon = 8.0e5;
    trace::TraceReplaySource replay(trace_times);
    const double truth_delay = queue_delay(replay, 20.0, trace_times.back(), 1);

    core::HapSource hap2_src(hap2);
    core::HapSource hap3_src(hap3p);
    const double onoff_delay = queue_delay(onoff, 20.0, horizon, 2);
    const double hap2_delay = queue_delay(hap2_src, 20.0, horizon, 3);
    const double hap3_delay = queue_delay(hap3_src, 20.0, horizon, 4);
    const double poisson_delay = 1.0 / (20.0 - m.mean_rate);

    std::printf("%-26s %12s %10s\n", "model", "delay (s)", "vs truth");
    std::printf("%-26s %12.4f %10s\n", "trace-driven (truth)", truth_delay, "-");
    std::printf("%-26s %12.4f %9.0f%%\n", "Poisson (M/M/1)", poisson_delay,
                100.0 * (poisson_delay / truth_delay - 1.0));
    std::printf("%-26s %12.4f %9.0f%%\n", "fitted on-off (duty .3)", onoff_delay,
                100.0 * (onoff_delay / truth_delay - 1.0));
    std::printf("%-26s %12.4f %9.0f%%\n", "fitted 2-level HAP", hap2_delay,
                100.0 * (hap2_delay / truth_delay - 1.0));
    std::printf("%-26s %12.4f %9.0f%%\n", "fitted 3-level HAP", hap3_delay,
                100.0 * (hap3_delay / truth_delay - 1.0));

    std::printf(
        "\nThe cautionary tale: every fitted model reproduces the measured\n"
        "rate and IDC, yet their delay predictions straddle the truth by\n"
        "orders of magnitude in BOTH directions. Matching second-order\n"
        "statistics says nothing about (a) which time scales carry the\n"
        "variance or (b) whether the fitted peak rate crosses the server\n"
        "capacity (the on-off fit at duty 0.3 bursts above mu and drowns).\n"
        "That is precisely the paper's argument for STRUCTURAL modeling:\n"
        "build the hierarchy from the system's real users, applications and\n"
        "messages instead of reverse-engineering moments.\n");
    return 0;
}
