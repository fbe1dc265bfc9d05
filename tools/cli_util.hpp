// Minimal flag parser for the hapctl command-line tool: --key value and
// --switch forms, with typed accessors and defaults. Deliberately tiny; no
// external dependencies.
#pragma once

#include <cstddef>
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
        return static_cast<std::size_t>(v);
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
