// Traffic measurement-and-fitting workflow: capture an arrival trace from a
// "live" source, estimate its second-order statistics, fit parsimonious
// models (on-off, 2-level HAP), and compare the queueing predictions each
// model makes against the trace-driven truth — the methodological loop the
// paper's measurement-vs-model discussion implies.
//
// A single trace is a poor yardstick: the trace-driven delay of this heavy-
// tailed source varies by more than half its mean from one capture to the
// next. So the whole loop (capture, measure, fit, score) runs on a few
// independent seeded streams, and every number is printed as mean +/- 95% CI
// over them.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/hap.hpp"
#include "experiment/result.hpp"
#include "parallel/parallel_for.hpp"
#include "queueing/queue_sim.hpp"
#include "stats/series.hpp"
#include "trace/arrival_log.hpp"
#include "traffic/fitting.hpp"

namespace {

using hap::experiment::Estimate;

constexpr std::size_t kStreams = 5;
constexpr double kMu = 20.0;
constexpr double kHorizon = 8.0e5;  // ~10 model-days per capture and per model run

// A template so each model runs the queue kernel with its own concrete type.
template <typename Source>
double queue_delay(Source& src, double horizon, hap::sim::RandomStream rng) {
    hap::sim::Exponential service(kMu);
    hap::queueing::QueueSimOptions opts;
    opts.horizon = horizon;
    opts.warmup = horizon * 0.02;
    return simulate_queue(src, service, rng, opts).delay.mean();
}

// Rows of the score table, in print order.
enum Row { kTruth, kPoisson, kOnOff, kHap2, kHap3, kRows };
constexpr const char* kRowNames[kRows] = {"trace-driven (truth)", "Poisson (M/M/1)",
                                          "fitted on-off (duty .3)", "fitted 2-level HAP",
                                          "fitted 3-level HAP"};

struct Replication {
    std::size_t arrivals = 0;
    double days = 0.0;
    double rate = 0.0, scv = 0.0, idc = 0.0, onoff_peak = 0.0;
    double delay[kRows] = {};
};

// One pass of the workflow on stream k.
Replication replicate(std::size_t k) {
    using namespace hap;
    const auto stream = [k](const char* what) {
        return sim::RandomStream::substream(99, k, sim::component_id(what));
    };
    Replication out;

    // 1. "Measure" a production-like stream: the paper's 3-level baseline.
    const core::HapParams truth = core::HapParams::paper_baseline(kMu);
    core::HapSource live(truth);
    sim::RandomStream rng = stream("traffic_fitting.capture");
    std::vector<double> trace_times;
    double t = 0.0;
    while (t < kHorizon) {
        t = live.next(rng);
        trace_times.push_back(t);
    }
    out.arrivals = trace_times.size();
    out.days = trace_times.back() / 86400.0;

    // 2. Estimate stream statistics.
    const auto m = traffic::measure_moments(trace_times);
    out.rate = m.mean_rate;
    out.scv = m.interarrival_scv;
    out.idc = m.idc;

    // 3. Fit candidate models to (rate, IDC).
    traffic::OnOffSource onoff = traffic::fit_onoff(m.mean_rate, m.idc, 0.3);
    out.onoff_peak = m.mean_rate / 0.3;
    core::HapParams hap2 = core::fit_hap_two_level(m.mean_rate, m.idc, 2.0);
    for (auto& app : hap2.apps)
        for (auto& msg : app.messages) msg.service_rate = kMu;
    core::HapParams hap3 =
        core::fit_hap_three_level(m.mean_rate, m.idc, 0.3, 5, 3, 5.0, 0.5).params;
    for (auto& app : hap3.apps)
        for (auto& msg : app.messages) msg.service_rate = kMu;

    // 4. Score each model by the delay it predicts on a mu = 20 server,
    //    against the trace-driven answer.
    trace::TraceReplaySource replay(trace_times);
    out.delay[kTruth] = queue_delay(replay, trace_times.back(), stream("traffic_fitting.truth"));
    out.delay[kPoisson] = 1.0 / (kMu - m.mean_rate);
    out.delay[kOnOff] = queue_delay(onoff, kHorizon, stream("traffic_fitting.onoff"));
    core::HapSource hap2_src(hap2);
    out.delay[kHap2] = queue_delay(hap2_src, kHorizon, stream("traffic_fitting.hap2"));
    core::HapSource hap3_src(hap3);
    out.delay[kHap3] = queue_delay(hap3_src, kHorizon, stream("traffic_fitting.hap3"));
    return out;
}

template <typename Field>
Estimate estimate(const std::vector<Replication>& reps, Field field) {
    hap::stats::OnlineStats s;
    for (const Replication& r : reps) s.add(field(r));
    return Estimate::from_replication_means(s);
}

std::string ci(const Estimate& e, const char* fmt) {
    char mean[48], hw[48];
    std::snprintf(mean, sizeof(mean), fmt, e.mean);
    std::snprintf(hw, sizeof(hw), fmt, e.half_width);
    return std::string(mean) + " +- " + hw;
}

}  // namespace

int main() {
    std::vector<Replication> reps(kStreams);
    hap::parallel::parallel_for(0, kStreams, [&](std::size_t k) { reps[k] = replicate(k); });

    const Estimate arrivals =
        estimate(reps, [](const Replication& r) { return static_cast<double>(r.arrivals); });
    const Estimate days = estimate(reps, [](const Replication& r) { return r.days; });
    std::printf("captured %zu independent traces, %.0f arrivals over %.1f model-days each\n"
                "(means); every number below is mean +- 95%% CI over the traces\n",
                kStreams, arrivals.mean, days.mean);
    std::printf("measured: rate %s msg/s, interarrival SCV %s, IDC %s\n\n",
                ci(estimate(reps, [](const Replication& r) { return r.rate; }), "%.3f").c_str(),
                ci(estimate(reps, [](const Replication& r) { return r.scv; }), "%.2f").c_str(),
                ci(estimate(reps, [](const Replication& r) { return r.idc; }), "%.0f").c_str());

    Estimate delay[kRows];
    for (int row = 0; row < kRows; ++row)
        delay[row] = estimate(reps, [row](const Replication& r) { return r.delay[row]; });
    const Estimate& truth = delay[kTruth];

    std::printf("%-26s %22s %10s  %s\n", "model", "delay (s)", "vs truth", "verdict");
    std::printf("%-26s %22s %10s  %s\n", kRowNames[kTruth], ci(truth, "%.4f").c_str(), "-", "-");
    std::string above, below, within;
    for (int row = kPoisson; row < kRows; ++row) {
        const Estimate& d = delay[row];
        // Overlapping intervals: these traces cannot tell the model from the truth.
        const bool overlaps = d.lo() <= truth.hi() && truth.lo() <= d.hi();
        const char* verdict = overlaps ? "within noise" : d.mean > truth.mean ? "above" : "below";
        std::string& list = overlaps ? within : d.mean > truth.mean ? above : below;
        list += (list.empty() ? "" : ", ") + std::string(kRowNames[row]);
        std::printf("%-26s %22s %9.0f%%  %s\n", kRowNames[row], ci(d, "%.4f").c_str(),
                    100.0 * (d.mean / truth.mean - 1.0), verdict);
    }

    const auto or_none = [](const std::string& s) { return s.empty() ? std::string("none") : s; };
    std::printf("\nAbove the truth's interval: %s.\nBelow it: %s.\nWithin noise: %s.\n",
                or_none(above).c_str(), or_none(below).c_str(), or_none(within).c_str());
    std::printf(
        "\nThe cautionary tale: every fitted model reproduces the measured\n"
        "rate and IDC, yet models with the same two moments predict delays\n"
        "that differ from each other by up to %.0fx. Matching second-order\n"
        "statistics says nothing about (a) which time scales carry the\n"
        "variance or (b) whether the fitted peak rate crosses the server\n"
        "capacity (the on-off fit at duty 0.3 peaks at %.1f msg/s against\n"
        "mu = %.0f). That is the paper's argument for STRUCTURAL modeling:\n"
        "build the hierarchy from the system's real users, applications and\n"
        "messages instead of reverse-engineering moments.\n",
        std::max({delay[kOnOff].mean, delay[kHap2].mean, delay[kHap3].mean}) /
            std::min({delay[kOnOff].mean, delay[kHap2].mean, delay[kHap3].mean}),
        estimate(reps, [](const Replication& r) { return r.onoff_peak; }).mean, kMu);
    return 0;
}
