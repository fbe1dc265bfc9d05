// Streaming summary statistics: Welford mean/variance, min/max, and
// time-weighted averages for piecewise-constant signals such as queue length.
#pragma once

#include <cstdint>
#include <limits>

#include "core/contracts.hpp"

namespace hap::stats {

// Numerically stable single-pass mean/variance (Welford's algorithm).
class OnlineStats {
public:
    // Deliberately out-of-line (one compiled instance in online_stats.cpp):
    // with -ffp-contract the Welford update `m2_ += delta * (x - mean_)` can
    // contract into an FMA differently at different inline sites, and on
    // knife-edge operands that rounds m2_ (hence variance and every derived
    // ci95) differently per caller. One instance keeps accumulation
    // bit-identical everywhere; the call costs ~2 ns against a per-departure
    // hot path that pays ~50 ns.
    void add(double x) noexcept;
    // Throws core::ContractViolation if `other` carries non-finite moments.
    void merge(const OnlineStats& other);

    std::uint64_t count() const noexcept { return n_; }
    double mean() const noexcept { return n_ > 0 ? mean_ : 0.0; }
    // Population variance (divides by n); matches the long-run variance a
    // simulation estimates.
    double variance() const noexcept { return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0; }
    // Unbiased sample variance (divides by n-1).
    double sample_variance() const noexcept {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }
    double stddev() const noexcept;
    double min() const noexcept { return n_ > 0 ? min_ : 0.0; }
    double max() const noexcept { return n_ > 0 ? max_ : 0.0; }
    double sum() const noexcept { return mean_ * static_cast<double>(n_); }
    // Coefficient of variation squared; the standard burstiness summary for
    // interarrival samples (1 for exponential).
    double scv() const noexcept;

    // Raw accumulator snapshot for checkpointing: restoring via from_state
    // reproduces the accumulator bit-for-bit, so a resumed sweep merges
    // identically to an uninterrupted one. min/max are +-Inf while n == 0
    // (the serializer omits them; JSON has no Inf).
    struct State {
        std::uint64_t n = 0;
        double mean = 0.0;
        double m2 = 0.0;
        double min = std::numeric_limits<double>::infinity();
        double max = -std::numeric_limits<double>::infinity();
    };
    State state() const noexcept { return State{n_, mean_, m2_, min_, max_}; }
    static OnlineStats from_state(const State& s) noexcept {
        OnlineStats o;
        o.n_ = s.n;
        o.mean_ = s.mean;
        o.m2_ = s.m2;
        o.min_ = s.min;
        o.max_ = s.max;
        return o;
    }

private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

// Time average of a piecewise-constant signal: feed (time, new_value) change
// points in nondecreasing time order; the signal holds its previous value on
// [prev_time, time).
class TimeWeightedStats {
public:
    explicit TimeWeightedStats(double start_time = 0.0, double start_value = 0.0) noexcept
        : last_time_(start_time), value_(start_value) {}

    // Change points must arrive in nondecreasing time order; a time stamp
    // that moves backwards throws core::ContractViolation. Defined inline:
    // this runs on every queue-length change in the event engines.
    void update(double time, double new_value);
    // Close the observation window at `time` without changing the value.
    void finish(double time) { update(time, value_); }

    // Combine the closed observation window of `other` into this one, as if
    // both windows had been observed in a single pass. Both accumulators
    // should be finish()ed first; the merged object is for reading
    // (mean/variance/max/elapsed), not for further update() calls.
    // Throws core::ContractViolation on a non-finite or negative window.
    void merge(const TimeWeightedStats& other);

    double elapsed() const noexcept { return total_time_; }
    double mean() const noexcept { return total_time_ > 0.0 ? area_ / total_time_ : 0.0; }
    // Time-weighted second moment and variance.
    double second_moment() const noexcept {
        return total_time_ > 0.0 ? area2_ / total_time_ : 0.0;
    }
    double variance() const noexcept;
    double max() const noexcept { return max_; }

    // Checkpoint snapshot; see OnlineStats::State. max is -Inf until the
    // first update().
    struct State {
        double last_time = 0.0;
        double value = 0.0;
        double total_time = 0.0;
        double area = 0.0;
        double area2 = 0.0;
        double max = -std::numeric_limits<double>::infinity();
    };
    State state() const noexcept {
        return State{last_time_, value_, total_time_, area_, area2_, max_};
    }
    static TimeWeightedStats from_state(const State& s) noexcept {
        TimeWeightedStats t(s.last_time, s.value);
        t.total_time_ = s.total_time;
        t.area_ = s.area;
        t.area2_ = s.area2;
        t.max_ = s.max;
        return t;
    }

private:
    double last_time_;
    double value_;
    double total_time_ = 0.0;
    double area_ = 0.0;
    double area2_ = 0.0;
    double max_ = -std::numeric_limits<double>::infinity();
};

inline void TimeWeightedStats::update(double time, double new_value) {
    HAP_PRECOND(time >= last_time_);  // change points are nondecreasing in time
    const double dt = time - last_time_;
    if (dt > 0.0) {
        area_ += value_ * dt;
        area2_ += value_ * value_ * dt;
        total_time_ += dt;
    }
    last_time_ = time;
    value_ = new_value;
    max_ = new_value > max_ ? new_value : max_;
}

}  // namespace hap::stats
