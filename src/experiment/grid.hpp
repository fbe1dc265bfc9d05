// Parameter-grid parsing and validation for sweep-style experiments.
//
// A grid axis is specified either as an explicit comma list "a,b,c" or as an
// inclusive range "lo:hi:step" with step > 0. Parsing is deterministic: the
// range form computes its point count up front (no floating-point loop
// counter), so the same spec always yields the same number of points.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hap::experiment {

// Parse a grid axis spec. Throws std::invalid_argument on malformed input:
// empty spec, empty list items, non-numeric values, non-finite values, a
// range with step <= 0 or hi < lo, or a range of more than a million points.
std::vector<double> parse_grid(const std::string& spec);

// Sweep-wide argument validation shared by hapctl and bench front ends.
// Throws std::invalid_argument naming the offending argument when a grid is
// empty, a value is non-finite/non-positive where positivity is required,
// reps is zero, or horizon does not exceed warmup.
struct SweepArgs {
    std::vector<double> services;       // service-rate axis; all > 0
    std::vector<double> lambda_scales;  // workload multipliers; all > 0
    std::size_t reps = 0;
    double horizon = 0.0;
    double warmup = 0.0;

    void validate() const;
};

}  // namespace hap::experiment
