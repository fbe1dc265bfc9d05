// Abstract arrival-stream interface shared by every traffic source in the
// library (Poisson, on-off, MMPP, trace replay, HAP). A source owns its
// internal clock and phase; successive calls to next() return strictly
// increasing absolute arrival times.
#pragma once

#include <memory>

#include "sim/rng.hpp"

namespace hap::traffic {

class ArrivalProcess {
public:
    virtual ~ArrivalProcess() = default;

    // Absolute time of the next arrival (advances internal state), or
    // +infinity if the stream has no further arrivals.
    virtual double next(sim::RandomStream& rng) = 0;

    // Long-run mean arrival rate, if known analytically.
    virtual double mean_rate() const = 0;

    // Restart the source at time 0 in its initial phase.
    virtual void reset() = 0;
};

using ArrivalProcessPtr = std::unique_ptr<ArrivalProcess>;

}  // namespace hap::traffic
