// Persistent cache of solved operating points for the hapd service.
//
// Keying (DESIGN.md §4j): an operating point is the flat ModelSpec tuple,
// canonicalized field-by-field with shortest-round-trip double formatting, so
// two requests name the same cache line iff their parameters are bit-equal —
// no tolerance-based aliasing, which is what makes a cache hit a byte-exact
// replay of the stored solve rather than "approximately the same answer".
// Admission entries add the delay threshold under an "adm:" prefix. A hashed
// key index makes a lookup one probe; each entry holds its result as the
// compact JSON bytes every reply for that point splices (answer_response).
//
// Every solve entry remembers its FAMILY — the key with the swept coordinate
// (the user arrival rate lambda, the paper's Fig. 12 load knob) struck out.
// A miss first asks the family for its nearest solved neighbor by coordinate
// and continuation-warm-starts from that neighbor's converged lattice state.
// States are deliberately NOT persisted (they are megabytes where the
// scalars are bytes), so a restarted daemon answers old points as exact hits
// from disk and rebuilds warm-start states as new solves happen.
//
// The in-memory states are a bounded store (DESIGN.md §4j "Warm-start
// neighbor policy"); every rule sits in insert():
//   * only an "ok" solve entry keeps its state (nearest() skips the rest);
//   * a family keeps at most kFamilyStates states: a newcomer to a full
//     family replaces the state of its nearest retained neighbor by |dcoord|
//     (ties toward the lower coordinate), so the kept states stay spread
//     over the range the family has explored, and an ascending sweep always
//     keeps its tip;
//   * past kStateBudgetBytes across all families, the oldest retained
//     states by insertion order go, never the newcomer's: resident lattices
//     stay under the budget plus one state.
// An entry that loses its state keeps its answer (lookup, nearest_result);
// it only stops seeding warm starts, like an entry restored from disk.
// Which states survive follows insertion order, as the seeds always did.
// While no family exceeds kFamilyStates solves every answer is the one an
// unbounded store gives; past that a warm answer may differ from it in its
// trailing digits (a different seed, converged to the same tolerance).
//
// Persistence reuses the hap.ckpt/v1 JSON-Lines container (PR 5): one
// fsync'ed record per solved point, append-only, torn-tail tolerant. A
// daemon killed mid-record loses at most that record; restart serves every
// previously completed point from the cache without re-solving.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/solution0.hpp"
#include "core/thread_safety.hpp"
#include "experiment/checkpoint.hpp"
#include "experiment/json.hpp"

namespace hap::service {

struct ModelSpec;

// The warm-start store's bounds (DESIGN.md §4j). Four spread states warm a
// family's next solve about as well as all of them (serve_explore: summed
// sweeps +4.8%, same warm-start count); 256 MiB holds >= 13 full-depth
// lattices at hapd's default boxes.
inline constexpr std::size_t kFamilyStates = 4;
inline constexpr std::size_t kStateBudgetBytes = std::size_t{256} << 20;

// Canonical cache key / family / coordinate for a solve-type operating point.
std::string solve_key(const ModelSpec& model);
std::string solve_family(const ModelSpec& model);  // key minus lambda
// Admission entries: solve key + threshold under a distinguishing prefix.
std::string admission_key(const ModelSpec& model, double delay_budget);

// One answer to cache. `result` holds the exact result object the original
// solve produced; the cache keeps its compact bytes, so replaying them is
// byte-identical by construction.
struct CachedPoint {
    std::string key;
    std::string family;   // empty for admission entries
    double coord = 0.0;   // lambda, for nearest-neighbor lookup
    std::string kind;     // "solve" | "admission"
    std::string quality;  // "ok" | "degraded"
    experiment::Json result;
    core::Solution0State state;  // in-memory only; kept only for "ok" solves
};

struct CacheLookup {
    std::string result;  // compact JSON bytes of the stored result object
    std::string quality;
};

// A warm-start candidate: the nearest solved neighbor's lattice and coordinate.
struct NearestState {
    core::Solution0State state;
    double coord = 0.0;
};

// The retained warm-start states: how many, their lattice bytes, and how
// many the family cap or the byte budget has evicted since startup.
struct StateStore {
    std::size_t states = 0;
    std::size_t bytes = 0;
    std::size_t dropped = 0;
};

// An approx-rung candidate (overload ladder, DESIGN.md §4l): the nearest
// cached "ok" ANSWER in a family — unlike NearestState it needs no in-memory
// lattice, so entries restored from disk qualify too.
struct [[nodiscard]] NearestResult {
    std::string result;  // compact JSON bytes, as CacheLookup::result
    double coord = 0.0;
};

class PointCache {
public:
    // `path` empty = memory-only. Otherwise loads the existing file (missing
    // file = fresh start, torn tail dropped, corruption throws) and appends
    // every future insert to it. `config` is the header fingerprint; a file
    // written with a different config is rejected.
    // `state_budget` is the byte budget of the warm-start store; only tests
    // pass a smaller one.
    explicit PointCache(std::string path, std::string config = "hapd-cache/v1",
                        std::size_t state_budget = kStateBudgetBytes);

    PointCache(const PointCache&) = delete;
    PointCache& operator=(const PointCache&) = delete;

    // Exact-key lookup, one hash probe; copies the stored answer bytes out
    // (never the state).
    std::optional<CacheLookup> lookup(const std::string& key) const;

    // Nearest solved "ok" neighbor in `family` by |coord - its coord| that
    // still holds an in-memory state. Ties break toward the lower coordinate
    // (deterministic). nullopt when the family has no warm candidate. The
    // lattice is copied after the cache mutex is released.
    std::optional<NearestState> nearest(const std::string& family, double coord) const;

    // Nearest "ok" cached ANSWER in `family` by |coord - its coord|, state
    // or no state (same deterministic tie-break as nearest()). Serves the
    // overload ladder's approx rung; the caller applies its distance bound.
    std::optional<NearestResult> nearest_result(const std::string& family,
                                                double coord) const;

    // Insert (or overwrite) a point and append it to the cache file. A
    // persistence failure — including an injected write@<path> fault tearing
    // the record mid-line — is contained: the entry stays served from memory,
    // the writer is disabled for the rest of the process, and the failure is
    // counted (hapd.cache.persist_errors) for the scrape endpoint. An
    // overwrite keeps the key's position in insertion order. Applies the
    // state store's bounds (header comment); evicted lattices are freed
    // after the mutex is released. With metrics on, sets the
    // hapd.cache.state_bytes gauge and counts hapd.cache.states_dropped.
    // Returns the result's compact bytes as stored, which the caller's reply
    // splices.
    std::string insert(CachedPoint point);

    std::size_t size() const;
    StateStore states() const;
    // Entries restored from disk by the constructor.
    std::size_t loaded() const noexcept { return loaded_; }
    // Persistence failures since startup.
    std::size_t persist_errors() const;

private:
    struct Entry {
        std::string key;
        std::string family;
        double coord = 0.0;
        std::string quality;
        std::string result;  // compact JSON bytes
        std::shared_ptr<const core::Solution0State> state;  // null: no seed
    };
    using Released = std::vector<std::shared_ptr<const core::Solution0State>>;

    // Insert, or overwrite in place when the key is already held; returns
    // the entry's position.
    std::size_t put(Entry entry) HAP_REQUIRES(mutex_);
    // Take entry i's state out of the store into `released`.
    void drop_state(std::size_t i, Released& released) HAP_REQUIRES(mutex_);

    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    struct Neighbor {
        std::size_t pos = kNone;  // nearest retained state's entry, if any
        std::size_t held = 0;     // states the family retains
    };
    // The family's retained state nearest `coord` (nearest()'s tie-break).
    Neighbor nearest_state(const std::string& family, double coord) const
        HAP_REQUIRES(mutex_);

    mutable core::Mutex mutex_;
    // Insertion-ordered, so nearest()'s scan and tie-break are deterministic;
    // index_ maps each key to its position for the exact-key paths.
    std::vector<Entry> entries_ HAP_GUARDED_BY(mutex_);
    std::unordered_map<std::string, std::size_t> index_ HAP_GUARDED_BY(mutex_);
    // Positions of the entries holding a state, oldest state first.
    std::vector<std::size_t> stated_ HAP_GUARDED_BY(mutex_);
    std::size_t state_bytes_ HAP_GUARDED_BY(mutex_) = 0;
    std::size_t states_dropped_ HAP_GUARDED_BY(mutex_) = 0;
    const std::size_t state_budget_;
    std::optional<experiment::CheckpointWriter> writer_ HAP_GUARDED_BY(mutex_);
    std::size_t persist_errors_ HAP_GUARDED_BY(mutex_) = 0;
    std::size_t loaded_ = 0;  // set once in the constructor
};

}  // namespace hap::service
