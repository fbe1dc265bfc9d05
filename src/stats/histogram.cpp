#include "stats/histogram.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"

namespace hap::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
    if (!(hi > lo)) throw std::invalid_argument("Histogram: hi <= lo");
    if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
    counts_.assign(bins, 0);
    width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) noexcept {
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // guard fp rounding
    ++counts_[idx];
}

void Histogram::merge(const Histogram& other) {
    if (lo_ != other.lo_ || hi_ != other.hi_ || counts_.size() != other.counts_.size()) {
        throw std::invalid_argument("Histogram::merge: binning mismatch");
    }
    HAP_PRECOND(other.underflow_ + other.overflow_ <= other.total_);
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
}

double Histogram::bin_lower(std::size_t i) const noexcept {
    return lo_ + width_ * static_cast<double>(i);
}

double Histogram::density(std::size_t i) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(bin_count(i)) /
           (static_cast<double>(total_) * width_);
}

double Histogram::quantile(double q) const {
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("Histogram::quantile: q out of range");
    if (total_ == 0) return lo_;
    const double target = q * static_cast<double>(total_);
    double cum = static_cast<double>(underflow_);
    if (target <= cum) return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = cum + static_cast<double>(counts_[i]);
        if (target <= next && counts_[i] > 0) {
            const double frac = (target - cum) / static_cast<double>(counts_[i]);
            return bin_lower(i) + frac * width_;
        }
        cum = next;
    }
    return hi_;
}

}  // namespace hap::stats
