#include "stats/series.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/online_stats.hpp"

namespace hap::stats {

BatchMeansResult batch_means(std::span<const double> samples, std::size_t batches) {
    if (batches < 2) throw std::invalid_argument("batch_means: need >= 2 batches");
    const std::size_t n = samples.size();
    if (n < batches) throw std::invalid_argument("batch_means: too few samples");
    const std::size_t per = n / batches;
    OnlineStats batch_stats;
    for (std::size_t b = 0; b < batches; ++b) {
        double sum = 0.0;
        for (std::size_t i = b * per; i < (b + 1) * per; ++i) sum += samples[i];
        batch_stats.add(sum / static_cast<double>(per));
    }
    BatchMeansResult out;
    out.mean = batch_stats.mean();
    out.batches = batches;
    out.half_width =
        1.96 * std::sqrt(batch_stats.sample_variance() / static_cast<double>(batches));
    return out;
}

double index_of_dispersion(std::span<const double> arrival_times, double window) {
    if (window <= 0.0) throw std::invalid_argument("index_of_dispersion: window <= 0");
    if (arrival_times.size() < 2) return 0.0;
    const double start = arrival_times.front();
    const double end = arrival_times.back();
    const auto num_windows = static_cast<std::size_t>((end - start) / window);
    if (num_windows < 2) return 0.0;
    OnlineStats counts;
    std::size_t idx = 0;
    for (std::size_t w = 0; w < num_windows; ++w) {
        const double hi = start + window * static_cast<double>(w + 1);
        std::size_t c = 0;
        while (idx < arrival_times.size() && arrival_times[idx] < hi) {
            ++c;
            ++idx;
        }
        counts.add(static_cast<double>(c));
    }
    const double mean = counts.mean();
    return mean > 0.0 ? counts.variance() / mean : 0.0;
}

double interarrival_scv(std::span<const double> arrival_times) {
    if (arrival_times.size() < 3) return 0.0;
    OnlineStats gaps;
    for (std::size_t i = 1; i < arrival_times.size(); ++i)
        gaps.add(arrival_times[i] - arrival_times[i - 1]);
    return gaps.scv();
}

}  // namespace hap::stats
