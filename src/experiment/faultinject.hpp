// Deterministic fault injection for the experiment engine.
//
// A FaultPlan is a parsed list of (kind, target, replication) triples that
// tells well-defined hook points in the stack to misbehave on purpose:
//
//   throw@<name>[#rep]   throw std::runtime_error before the job runs
//   nan@<name>[#rep]     poison the replication's delay accumulator with NaN
//   noconv@<name>        force the analytic solve to stop non-converged
//   write@<name>         abort an atomic_write_file mid-stream (partial tmp)
//
// Service (network-chaos) faults, PR 10. For these kinds the optional #N
// suffix is a PARAMETER of the fault (milliseconds / count), not a
// replication matcher; read it with fault_value():
//
//   slowloris@conn[#ms]  client send dribbles one byte every `ms` (default 1)
//   torn_frame@conn      client sends half a frame, then half-closes
//   stall@solve#ms       hapd sleeps `ms` inside the solve path (builds the
//                        queue depth that triggers the overload ladder)
//   storm@accept#n       sizes the chaos harness's connection storm (`n`
//                        simultaneous clients); the daemon itself has no hook
//
// `<name>` matches by substring against the scenario / sweep-point / file
// name ("*" matches everything); `#rep` pins the fault to one replication id
// (absent = every replication). Entries are comma-separated, e.g.
//
//   HAP_FAULT_INJECT='throw@service=17.lambda=0.5#1,nan@lambda=1'
//
// Matching depends only on (kind, name, rep) — never on thread schedule or
// wall clock — so an injected fault reproduces bit-identically at any thread
// count. For the analytic sweep, noconv/throw apply to the PRIMARY
// solve of a point only; the fallback hops run clean, which is exactly what
// lets a test prove the fallback chain recovers.
//
// The process-wide plan is loaded lazily from HAP_FAULT_INJECT on first use;
// tools and tests override it with set_fault_plan().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hap::experiment {

enum class FaultKind {
    Throw,
    Nan,
    NoConverge,
    WriteAbort,
    // Service chaos kinds (value-carrying: #N is a parameter, not a rep).
    Slowloris,
    TornFrame,
    Stall,
    Storm,
};

// One parsed spec entry.
struct FaultSpec {
    FaultKind kind = FaultKind::Throw;
    std::string target;        // substring of the component name; "*" = all
    std::uint64_t run_id = 0;  // meaningful iff any_run is false
    bool any_run = true;
};

class FaultPlan {
public:
    FaultPlan() = default;

    // Parse a comma-separated spec; throws std::invalid_argument with the
    // offending entry on a malformed spec. An empty string is an empty plan.
    static FaultPlan parse(const std::string& spec);

    bool empty() const noexcept { return specs_.empty(); }
    const std::vector<FaultSpec>& specs() const noexcept { return specs_; }

    // True when some entry of kind `k` matches (name, run_id).
    bool matches(FaultKind k, std::string_view name, std::uint64_t run_id) const noexcept;

    // Value-carrying kinds (stall/slowloris/storm): the first entry of kind
    // `k` whose target matches `name` yields its #N payload, or `fallback`
    // when the entry carries none. nullopt = no entry matches (fault off).
    std::optional<std::uint64_t> value(FaultKind k, std::string_view name,
                                       std::uint64_t fallback) const noexcept;

private:
    std::vector<FaultSpec> specs_;
};

// The process-wide plan: first call parses HAP_FAULT_INJECT (empty plan when
// unset). Not thread-safe against concurrent set_fault_plan; configure the
// plan before launching pools (the hooks themselves are read-only).
const FaultPlan& fault_plan();
void set_fault_plan(FaultPlan plan);

// Hook helper: true when the active plan fires `k` at (name, run_id). The
// common no-plan case is one cheap empty() check.
bool fault_fires(FaultKind k, std::string_view name, std::uint64_t run_id);

// Value-carrying hook helper: the active plan's #N parameter for `k` at
// `name` (fallback when the matching entry has no #N), nullopt when no entry
// matches. The no-plan case is one cheap empty() check.
std::optional<std::uint64_t> fault_value(FaultKind k, std::string_view name,
                                         std::uint64_t fallback = 1);

// Throw-kind hook: throws std::runtime_error("injected fault: ...") when the
// plan fires FaultKind::Throw at (name, run_id).
void maybe_throw_injected(std::string_view name, std::uint64_t run_id);

}  // namespace hap::experiment
