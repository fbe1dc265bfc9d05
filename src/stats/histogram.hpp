// Fixed-range histogram with under/overflow bins and quantile estimation.
#pragma once

#include <cstdint>
#include <vector>

namespace hap::stats {

class Histogram {
public:
    // [lo, hi) split into `bins` equal-width cells.
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x) noexcept;

    // Add another histogram's counts; throws std::invalid_argument unless
    // both share the same [lo, hi) range and bin count.
    void merge(const Histogram& other);

    std::uint64_t count() const noexcept { return total_; }
    std::uint64_t underflow() const noexcept { return underflow_; }
    std::uint64_t overflow() const noexcept { return overflow_; }
    std::size_t bins() const noexcept { return counts_.size(); }
    std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
    double bin_lower(std::size_t i) const noexcept;

    // Empirical density estimate at bin i (count / (total * width)).
    double density(std::size_t i) const;

    // Linear-interpolated quantile, q in [0, 1]. Underflow mass is treated as
    // sitting at `lo`, overflow mass at `hi`.
    double quantile(double q) const;

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

}  // namespace hap::stats
