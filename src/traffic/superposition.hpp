// Superposition of independent arrival streams. The paper contrasts
// multiplexing independent sources (which smooths traffic) against HAP's
// correlated hierarchy (which amplifies bursts); this combinator provides the
// independent side of that comparison.
#pragma once

#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "traffic/arrival_process.hpp"

namespace hap::traffic {

class SuperpositionSource final : public ArrivalProcess {
public:
    explicit SuperpositionSource(std::vector<ArrivalProcessPtr> sources)
        : sources_(std::move(sources)) {
        if (sources_.empty())
            throw std::invalid_argument("SuperpositionSource: no sources");
    }

    double next(sim::RandomStream& rng) override {
        if (!primed_) prime(rng);
        if (heap_.empty()) return std::numeric_limits<double>::infinity();
        const auto [t, idx] = heap_.top();
        heap_.pop();
        const double nt = sources_[idx]->next(rng);
        if (nt < std::numeric_limits<double>::infinity()) heap_.emplace(nt, idx);
        return t;
    }

    double mean_rate() const override {
        double total = 0.0;
        for (const auto& s : sources_) total += s->mean_rate();
        return total;
    }

    void reset() override {
        for (auto& s : sources_) s->reset();
        heap_ = {};
        primed_ = false;
    }

private:
    void prime(sim::RandomStream& rng) {
        for (std::size_t i = 0; i < sources_.size(); ++i) {
            const double t = sources_[i]->next(rng);
            if (t < std::numeric_limits<double>::infinity()) heap_.emplace(t, i);
        }
        primed_ = true;
    }

    using Entry = std::pair<double, std::size_t>;
    std::vector<ArrivalProcessPtr> sources_;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    bool primed_ = false;
};

}  // namespace hap::traffic
