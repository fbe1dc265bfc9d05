// Minimal flag parser for the hapctl command-line tool: --key value and
// --switch forms, with typed accessors and defaults. Deliberately tiny; no
// external dependencies.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace hap::cli {

class Flags {
public:
    // argv past the subcommand; flags are "--name value" or bare "--name".
    Flags(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                throw std::invalid_argument("unexpected argument: " + arg);
            arg.erase(0, 2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[arg] = argv[++i];
            } else {
                values_[arg] = "";  // bare switch
            }
        }
    }

    bool has(const std::string& name) const { return values_.count(name) > 0; }

    double number(const std::string& name, double fallback) const {
        auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        char* end = nullptr;
        const double v = std::strtod(it->second.c_str(), &end);
        if (end == it->second.c_str() || *end != '\0') {
            throw std::invalid_argument("--" + name + " expects a number, got '" +
                                        it->second + "'");
        }
        return v;
    }

    std::size_t count(const std::string& name, std::size_t fallback) const {
        const double v = number(name, static_cast<double>(fallback));
        if (v < 0.0) throw std::invalid_argument("--" + name + " must be >= 0");
        // NaN fails this test too; SIZE_MAX rounds up to 2^64 as a double.
        if (!(v < static_cast<double>(std::numeric_limits<std::size_t>::max())))
            throw std::invalid_argument("--" + name + " must be a finite count");
        // Refused, not truncated: "2.5" is no count, "1e3" is.
        if (v != std::floor(v))
            throw std::invalid_argument("--" + name + " must be a whole number, got '" +
                                        text(name, "") + "'");
        return static_cast<std::size_t>(v);
    }

    // A count no larger than `max`: a port, or a millisecond timeout that
    // lands in an int.
    std::size_t count_at_most(const std::string& name, std::size_t fallback,
                              std::size_t max) const {
        const std::size_t v = count(name, fallback);
        if (v > max)
            throw std::invalid_argument("--" + name + " must be <= " + std::to_string(max));
        return v;
    }

    // An exact unsigned 64-bit integer, for seeds: decimal digits only, so a
    // sign, a fraction or a value past 2^64 - 1 is refused rather than cast.
    std::uint64_t seed(const std::string& name, std::uint64_t fallback) const {
        auto it = values_.find(name);
        if (it == values_.end()) return fallback;
        const std::string& s = it->second;
        std::uint64_t v = 0;
        const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
        if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) {
            throw std::invalid_argument("--" + name +
                                        " must be an integer in [0, 2^64 - 1], got '" +
                                        s + "'");
        }
        return v;
    }

    std::string text(const std::string& name, const std::string& fallback) const {
        auto it = values_.find(name);
        return it == values_.end() ? fallback : it->second;
    }

    // Flags consumed so far vs provided — catch typos.
    void reject_unknown(const std::vector<std::string>& known) const {
        for (const auto& [k, v] : values_) {
            bool ok = false;
            for (const auto& name : known) ok |= (k == name);
            if (!ok) throw std::invalid_argument("unknown flag --" + k);
        }
    }

private:
    std::map<std::string, std::string> values_;
};

}  // namespace hap::cli
