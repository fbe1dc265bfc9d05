#include "experiment/faultinject.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace hap::experiment {

namespace {

FaultKind kind_from(const std::string& word, const std::string& entry) {
    if (word == "throw") return FaultKind::Throw;
    if (word == "nan") return FaultKind::Nan;
    if (word == "noconv") return FaultKind::NoConverge;
    if (word == "write") return FaultKind::WriteAbort;
    if (word == "slowloris") return FaultKind::Slowloris;
    if (word == "torn_frame") return FaultKind::TornFrame;
    if (word == "stall") return FaultKind::Stall;
    if (word == "storm") return FaultKind::Storm;
    throw std::invalid_argument(
        "fault spec: unknown kind in '" + entry +
        "' (throw|nan|noconv|write|slowloris|torn_frame|stall|storm)");
}

FaultSpec parse_entry(const std::string& entry) {
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0)
        throw std::invalid_argument("fault spec: expected kind@target in '" + entry + "'");
    FaultSpec spec;
    spec.kind = kind_from(entry.substr(0, at), entry);
    std::string target = entry.substr(at + 1);
    const std::size_t hash = target.rfind('#');
    if (hash != std::string::npos) {
        const std::string rep = target.substr(hash + 1);
        target.resize(hash);
        if (rep.empty()) throw std::invalid_argument("fault spec: empty #rep in '" + entry + "'");
        char* end = nullptr;
        const unsigned long long v = std::strtoull(rep.c_str(), &end, 10);
        if (end == nullptr || *end != '\0')
            throw std::invalid_argument("fault spec: bad #rep in '" + entry + "'");
        spec.run_id = v;
        spec.any_run = false;
    }
    if (target.empty())
        throw std::invalid_argument("fault spec: empty target in '" + entry + "'");
    spec.target = std::move(target);
    return spec;
}

FaultPlan& mutable_plan() {
    // Parsed once from the environment; set_fault_plan replaces it. The
    // first-use parse happens before any pool exists (hapctl / test setup),
    // so no synchronization is needed on the hooks' read path.
    static FaultPlan plan = [] {
        const char* env = std::getenv("HAP_FAULT_INJECT");  // haplint: allow(env-after-spawn) phase-0: forced on the coordinating thread (runner.cpp) before pools
        return env != nullptr ? FaultPlan::parse(env) : FaultPlan{};
    }();
    return plan;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
    FaultPlan plan;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end = comma == std::string::npos ? spec.size() : comma;
        const std::string entry = spec.substr(pos, end - pos);
        if (!entry.empty()) plan.specs_.push_back(parse_entry(entry));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return plan;
}

bool FaultPlan::matches(FaultKind k, std::string_view name,
                        std::uint64_t run_id) const noexcept {
    for (const FaultSpec& s : specs_) {
        if (s.kind != k) continue;
        if (!s.any_run && s.run_id != run_id) continue;
        if (s.target != "*" && name.find(s.target) == std::string_view::npos) continue;
        return true;
    }
    return false;
}

std::optional<std::uint64_t> FaultPlan::value(FaultKind k, std::string_view name,
                                              std::uint64_t fallback) const noexcept {
    for (const FaultSpec& s : specs_) {
        if (s.kind != k) continue;
        if (s.target != "*" && name.find(s.target) == std::string_view::npos) continue;
        return s.any_run ? fallback : s.run_id;
    }
    return std::nullopt;
}

const FaultPlan& fault_plan() { return mutable_plan(); }

void set_fault_plan(FaultPlan plan) { mutable_plan() = std::move(plan); }

bool fault_fires(FaultKind k, std::string_view name, std::uint64_t run_id) {
    const FaultPlan& plan = fault_plan();
    if (plan.empty()) return false;
    return plan.matches(k, name, run_id);
}

std::optional<std::uint64_t> fault_value(FaultKind k, std::string_view name,
                                         std::uint64_t fallback) {
    const FaultPlan& plan = fault_plan();
    if (plan.empty()) return std::nullopt;
    return plan.value(k, name, fallback);
}

void maybe_throw_injected(std::string_view name, std::uint64_t run_id) {
    if (fault_fires(FaultKind::Throw, name, run_id)) {
        throw std::runtime_error("injected fault: throw@" + std::string(name) + "#" +
                                 std::to_string(run_id));
    }
}

}  // namespace hap::experiment
