// Correlation/burstiness diagnostics over recorded samples: lag-k
// autocorrelation, batch-means confidence intervals, and the index of
// dispersion for counts (IDC) — the standard second-order burstiness measure
// for arrival streams (IDC = 1 for Poisson at every window size).
#pragma once

#include <cstddef>
#include <span>

namespace hap::stats {

// Lag-k autocorrelation coefficient of a sample sequence (biased estimator).
double autocorrelation(std::span<const double> samples, std::size_t lag);

// Batch-means half-width of a ~95% confidence interval for the mean of a
// correlated sequence. Splits into `batches` contiguous batches and applies
// the normal approximation across batch means.
struct [[nodiscard]] BatchMeansResult {
    double mean = 0.0;
    double half_width = 0.0;  // 1.96 * stderr of batch means
    std::size_t batches = 0;
};
BatchMeansResult batch_means(std::span<const double> samples, std::size_t batches);

// Index of dispersion for counts: Var[N(0,T)] / E[N(0,T)] where N(0,T) counts
// arrivals in windows of length T tiled over the observation span.
// `arrival_times` must be sorted ascending.
double index_of_dispersion(std::span<const double> arrival_times, double window);

// Peakedness of the interarrival sequence: squared coefficient of variation.
double interarrival_scv(std::span<const double> arrival_times);

}  // namespace hap::stats
