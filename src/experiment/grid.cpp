#include "experiment/grid.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/contracts.hpp"

namespace hap::experiment {

namespace {

// Cap on a range's point count: far beyond any sweep a front end can run,
// and small enough that reserving it cannot exhaust memory.
constexpr std::size_t kMaxGridPoints = 1000000;

double parse_value(const std::string& tok, const std::string& spec) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0') {
        throw std::invalid_argument("bad grid value '" + tok + "' in spec '" + spec +
                                    "'");
    }
    if (!std::isfinite(v)) {
        throw std::invalid_argument("non-finite grid value '" + tok + "' in spec '" +
                                    spec + "'");
    }
    return v;
}

std::vector<double> parse_range(const std::string& spec) {
    const std::size_t c1 = spec.find(':');
    const std::size_t c2 = spec.find(':', c1 + 1);
    if (c2 == std::string::npos || spec.find(':', c2 + 1) != std::string::npos) {
        throw std::invalid_argument("bad grid spec '" + spec +
                                    "' (want lo:hi:step)");
    }
    const double lo = parse_value(spec.substr(0, c1), spec);
    const double hi = parse_value(spec.substr(c1 + 1, c2 - c1 - 1), spec);
    const double step = parse_value(spec.substr(c2 + 1), spec);
    if (step <= 0.0 || hi < lo) {
        throw std::invalid_argument("bad grid spec '" + spec +
                                    "' (want lo:hi:step with step > 0 and hi >= lo)");
    }
    // Point count fixed up front: lo + k*step for k = 0..count-1, with half a
    // step of slack so "0.1:0.5:0.1" reliably includes 0.5. Checked before
    // the cast: (hi - lo) / step can overflow to inf or exceed size_t.
    const double steps = std::floor((hi - lo) / step + 0.5);
    if (!(steps < static_cast<double>(kMaxGridPoints))) {
        throw std::invalid_argument("bad grid spec '" + spec + "' (more than " +
                                    std::to_string(kMaxGridPoints) + " points)");
    }
    const auto count = static_cast<std::size_t>(steps) + 1;
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        const double v = lo + static_cast<double>(k) * step;
        if (v > hi + 1e-9 * step) break;  // guard: slack overshot the endpoint
        out.push_back(v);
    }
    return out;
}

}  // namespace

std::vector<double> parse_grid(const std::string& spec) {
    if (spec.empty()) {
        throw std::invalid_argument("empty grid spec");
    }
    if (spec.find(':') != std::string::npos) return parse_range(spec);

    std::vector<double> out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = spec.find(',', pos);
        const std::string tok =
            spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (tok.empty()) {
            throw std::invalid_argument("empty item in grid spec '" + spec + "'");
        }
        out.push_back(parse_value(tok, spec));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    HAP_PRECOND(!out.empty());
    return out;
}

void SweepArgs::validate() const {
    if (services.empty()) {
        throw std::invalid_argument("empty service grid");
    }
    if (lambda_scales.empty()) {
        throw std::invalid_argument("empty lambda grid");
    }
    for (double s : services) {
        if (!(s > 0.0) || !std::isfinite(s)) {
            throw std::invalid_argument("service rates must be positive finite");
        }
    }
    for (double s : lambda_scales) {
        if (!(s > 0.0) || !std::isfinite(s)) {
            throw std::invalid_argument("lambda scales must be positive finite");
        }
    }
    if (reps == 0) {
        throw std::invalid_argument("--reps must be >= 1");
    }
    if (!(horizon > 0.0) || !std::isfinite(horizon)) {
        throw std::invalid_argument("--horizon must be positive finite");
    }
    if (!(warmup >= 0.0) || !std::isfinite(warmup)) {
        throw std::invalid_argument("--warmup must be >= 0 and finite");
    }
    if (horizon <= warmup) {
        throw std::invalid_argument("--horizon must exceed --warmup");
    }
}

}  // namespace hap::experiment
