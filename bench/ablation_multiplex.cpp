// Ablation: multiplexing HAP with non-HAP traffic (the paper's Section 7
// "in-progress" study, and the Section 6 advice: "multiplexing HAP traffic
// with non-HAP traffic should be avoided, especially when the non-HAP
// traffic is some real-time application").
//
// A real-time-like Poisson class shares one server with a HAP class of equal
// mean rate. We sweep the HAP share of the fixed total load and report the
// Poisson class's delay degradation relative to serving it alongside an
// equally-loaded Poisson class instead.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hap.hpp"
#include "queueing/multiclass_sim.hpp"
#include "traffic/poisson.hpp"

namespace {

using hap::experiment::Estimate;

// Per-class mean delays of one replication: [0] the Poisson class, [1] the
// HAP class (0 when the HAP share is zero).
struct ClassDelays {
    double poisson = 0.0;
    double hap = 0.0;
};

// One replication of the mixed system: a Poisson class at `poi_rate` and a
// HAP class at `hap_rate` share one mu server. The HAP keeps the paper
// baseline's slow user/application dynamics (the source of the long
// mountains), scaled to the requested rate through the user level.
ClassDelays run_mixed(double mu, double poi_rate, double hap_rate,
                      hap::queueing::Discipline disc, hap::sim::RandomStream rng) {
    const hap::sim::Exponential service(mu);
    hap::traffic::PoissonSource poisson(std::max(poi_rate, 1e-9));
    hap::core::HapParams hp = hap::core::HapParams::paper_baseline(mu);
    hp.user_arrival_rate *= hap_rate > 0.0 ? hap_rate / 8.25 : 1e-6;
    hap::core::HapSource hap_src(hp);
    std::vector<hap::queueing::TrafficClass> classes;
    classes.push_back({&poisson, &service, "poisson"});
    if (hap_rate > 0.0) classes.push_back({&hap_src, &service, "hap"});
    hap::queueing::MulticlassOptions opts;
    opts.warmup = 2e4;
    opts.horizon = hap::bench::rep_horizon(8e5, opts.warmup);
    opts.discipline = disc;
    const auto res = simulate_multiclass_queue(classes, rng, opts);
    return {res.per_class[0].delay.mean(),
            classes.size() > 1 ? res.per_class[1].delay.mean() : 0.0};
}

// HAP_BENCH_REPS independent replications of one configuration, one result
// slot each, run on the bench's thread pool; the estimates are the mean and
// 95% CI over the replication means.
std::pair<Estimate, Estimate> replicate(const std::string& name, double mu, double poi_rate,
                                        double hap_rate, hap::queueing::Discipline disc) {
    const std::size_t reps = hap::bench::replications();
    std::vector<ClassDelays> slots(reps);
    hap::parallel::parallel_for(hap::bench::threads(), reps, [&](std::size_t i) {
        slots[i] = run_mixed(mu, poi_rate, hap_rate, disc,
                             hap::sim::RandomStream::substream(
                                 4100, i, hap::sim::component_id(name)));
    });
    hap::stats::OnlineStats poisson, hap;
    for (const ClassDelays& d : slots) {
        poisson.add(d.poisson);
        hap.add(d.hap);
    }
    return {Estimate::from_replication_means(poisson), Estimate::from_replication_means(hap)};
}

}  // namespace

int main() {
    hap::bench::header("Ablation", "multiplexing HAP with real-time Poisson traffic");
    hap::bench::paper_note(
        "'the less bursty applications will suffer a lot' when sharing a "
        "channel with HAP traffic");

    const double mu = 20.0;
    const double total = 8.0;  // fixed total offered rate (rho = 0.4)
    const auto fifo = hap::queueing::Discipline::kFifo;

    std::printf("%10s | %16s %16s | %13s %8s\n", "HAP share", "poisson T", "hap T",
                "all-poisson T", "penalty");
    for (double share : {0.0, 0.25, 0.5, 0.75}) {
        const double hap_rate = total * share;
        char name[64];
        std::snprintf(name, sizeof(name), "ablation_multiplex.share=%g", share);
        const auto [poisson, hap] = replicate(name, mu, total - hap_rate, hap_rate, fifo);
        // Reference: the same total load, all Poisson (M/M/1).
        const double all_poisson = 1.0 / (mu - total);
        std::printf("%9.0f%% | %16s %16s | %13.4f %7.1fx\n", share * 100.0,
                    hap::bench::fmt_ci(poisson).c_str(),
                    share > 0.0 ? hap::bench::fmt_ci(hap).c_str() : "-", all_poisson,
                    poisson.mean / all_poisson);
    }

    // The remedy: non-preemptive priority for the real-time class.
    std::printf("\nwith priority for the real-time class (HAP share 50%%):\n");
    for (const auto disc : {fifo, hap::queueing::Discipline::kPriority}) {
        const bool is_fifo = disc == fifo;
        const auto [poisson, hap] = replicate(
            is_fifo ? "ablation_multiplex.fifo" : "ablation_multiplex.priority", mu, 4.0,
            4.0, disc);
        std::printf("  %-9s poisson T %s   hap T %s\n", is_fifo ? "FIFO" : "priority",
                    hap::bench::fmt_ci(poisson).c_str(), hap::bench::fmt_ci(hap).c_str());
    }

    std::printf("\nReading: at a fixed total load, replacing Poisson background\n"
                "with HAP background multiplies the real-time class's delay —\n"
                "the HAP bursts monopolize the server for stretches far longer\n"
                "than any Poisson fluctuation, so the 'innocent' class queues\n"
                "behind them. FIFO has no isolation; a priority class (or the\n"
                "paper's advice: a separate channel) restores it.\n");
    return 0;
}
