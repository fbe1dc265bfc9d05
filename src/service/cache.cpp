#include "service/cache.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "service/protocol.hpp"

namespace hap::service {

namespace {

using experiment::Json;

// Key fields are written straight into one reserved string: doubles as the
// shortest-round-trip text Json::number emits ("null" when non-finite), so
// the key of a parameter is exactly the bytes its JSON form would carry, and
// counts in decimal, as std::to_string writes them.
constexpr std::size_t kKeyReserve = 128;

void append_count(std::string& out, std::size_t v) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

// ";mu;lambda1;mu1;l;lambda2;m;service;max_users;max_apps": everything except
// lambda (the continuation coordinate), in fixed order.
void append_family_fields(std::string& out, const ModelSpec& model) {
    const auto number = [&](double v) {
        out += ';';
        experiment::append_json_number(out, v);
    };
    const auto count = [&](std::size_t v) {
        out += ';';
        append_count(out, v);
    };
    number(model.mu);
    number(model.lambda1);
    number(model.mu1);
    count(model.l);
    number(model.lambda2);
    count(model.m);
    number(model.service);
    count(model.max_users);
    count(model.max_apps);
}

void append_solve_key(std::string& out, const ModelSpec& model) {
    out += "s0:";
    experiment::append_json_number(out, model.lambda);
    append_family_fields(out, model);
}

// Lattice bytes a retained state holds.
std::size_t state_size(const core::Solution0State& s) { return s.pi.size() * sizeof(double); }

}  // namespace

std::string solve_key(const ModelSpec& model) {
    std::string k;
    k.reserve(kKeyReserve);
    append_solve_key(k, model);
    return k;
}

std::string solve_family(const ModelSpec& model) {
    std::string f;
    f.reserve(kKeyReserve);
    f += "f0:";
    append_family_fields(f, model);
    return f;
}

std::string admission_key(const ModelSpec& model, double delay_budget) {
    std::string k;
    k.reserve(kKeyReserve);
    k += "adm:";
    experiment::append_json_number(k, delay_budget);
    k += ';';
    append_solve_key(k, model);
    return k;
}

PointCache::PointCache(std::string path, std::string config, std::size_t state_budget)
    : state_budget_(state_budget) {
    if (path.empty()) return;
    const experiment::RawCheckpoint raw = experiment::read_checkpoint_raw(path);
    if (!raw.config.empty() && raw.config != config) {
        throw std::runtime_error("cache " + path + " was written with config \"" +
                                 raw.config + "\" (want \"" + config + "\")");
    }
    const core::MutexLock lock(mutex_);
    for (std::size_t i = 0; i < raw.records.size(); ++i) {
        const Json& rec = raw.records[i];
        try {
            const Json& p = rec.at("point");
            Entry e;
            e.key = p.at("key").as_string();
            e.family = p.find("family") != nullptr ? p.at("family").as_string() : "";
            e.coord = p.find("coord") != nullptr ? p.at("coord").as_number() : 0.0;
            (void)p.at("kind").as_string();  // required on disk, unused in memory
            e.quality = p.at("quality").as_string();
            e.result = p.at("result").dump(0);
            // Later records win (a re-solve of a torn point supersedes).
            put(std::move(e));
        } catch (const std::exception& e) {
            // A semantically incomplete FINAL record on a torn line is the
            // write the crash interrupted; anything else is corruption.
            if (raw.torn_tail && i + 1 == raw.records.size()) break;
            throw std::runtime_error("cache " + path + ": bad record: " + e.what());
        }
    }
    loaded_ = entries_.size();
    writer_.emplace(path, config);
}

std::optional<CacheLookup> PointCache::lookup(const std::string& key) const {
    const core::MutexLock lock(mutex_);
    const auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    const Entry& e = entries_[it->second];
    return CacheLookup{e.result, e.quality};
}

PointCache::Neighbor PointCache::nearest_state(const std::string& family,
                                              double coord) const {
    Neighbor n;
    std::tuple<double, double, std::size_t> best;
    for (const std::size_t i : stated_) {
        const Entry& e = entries_[i];
        if (e.family != family) continue;
        ++n.held;
        // Equal distances: the lower coordinate, then the earlier entry.
        const std::tuple<double, double, std::size_t> rank{std::abs(e.coord - coord), e.coord, i};
        if (n.pos == kNone || rank < best) {
            n.pos = i;
            best = rank;
        }
    }
    return n;
}

std::optional<NearestState> PointCache::nearest(const std::string& family,
                                                double coord) const {
    std::shared_ptr<const core::Solution0State> state;
    double state_coord = 0.0;
    {
        const core::MutexLock lock(mutex_);
        const Neighbor n = nearest_state(family, coord);
        if (n.pos == kNone) return std::nullopt;
        state = entries_[n.pos].state;
        state_coord = entries_[n.pos].coord;
    }
    return NearestState{*state, state_coord};
}

std::optional<NearestResult> PointCache::nearest_result(const std::string& family,
                                                        double coord) const {
    const core::MutexLock lock(mutex_);
    const Entry* best = nullptr;
    double best_dist = 0.0;
    for (const Entry& e : entries_) {
        if (e.family != family || e.quality != "ok") continue;
        const double dist = std::abs(e.coord - coord);
        if (best == nullptr || dist < best_dist ||
            (dist == best_dist && e.coord < best->coord)) {  // haplint: allow(float-equality) deterministic tie-break on identical distances
            best = &e;
            best_dist = dist;
        }
    }
    if (best == nullptr) return std::nullopt;
    return NearestResult{best->result, best->coord};
}

std::size_t PointCache::put(Entry entry) {
    const auto [it, fresh] = index_.try_emplace(entry.key, entries_.size());
    if (fresh) {
        entries_.push_back(std::move(entry));
    } else {
        entries_[it->second] = std::move(entry);
    }
    return it->second;
}

void PointCache::drop_state(std::size_t i, Released& released) {
    state_bytes_ -= state_size(*entries_[i].state);
    released.push_back(std::move(entries_[i].state));
    stated_.erase(std::find(stated_.begin(), stated_.end(), i));
}

std::string PointCache::insert(CachedPoint point) {
    // Serialize outside the lock: the stored bytes, then the file record.
    Entry e;
    e.result = point.result.dump(0);
    std::string result = e.result;
    Json rec = Json::object();
    {
        Json p = Json::object();
        p.set("key", Json::string(point.key));
        if (!point.family.empty()) {
            p.set("family", Json::string(point.family));
            p.set("coord", Json::number(point.coord));
        }
        p.set("kind", Json::string(point.kind));
        p.set("quality", Json::string(point.quality));
        p.set("result", std::move(point.result));
        rec.set("point", std::move(p));
    }
    e.key = std::move(point.key);
    e.family = std::move(point.family);
    e.coord = point.coord;
    e.quality = std::move(point.quality);
    // Only an "ok" solve seeds warm starts; any other state is freed here.
    if (!point.state.empty() && !e.family.empty() && e.quality == "ok") {
        e.state = std::make_shared<const core::Solution0State>(std::move(point.state));
    }
    point.state = core::Solution0State{};

    Released released;  // declared before the lock: freed after it is released
    std::size_t dropped = 0;
    const core::MutexLock lock(mutex_);
    if (const auto it = index_.find(e.key);
        it != index_.end() && entries_[it->second].state != nullptr) {
        drop_state(it->second, released);  // an overwrite replaces, never adds
    }
    const std::size_t pos = put(std::move(e));
    const Entry& added = entries_[pos];
    if (added.state != nullptr) {
        // A full family: the newcomer makes its nearest neighbor redundant.
        const Neighbor n = nearest_state(added.family, added.coord);
        if (n.held >= kFamilyStates) {
            drop_state(n.pos, released);
            ++dropped;
        }
        stated_.push_back(pos);
        state_bytes_ += state_size(*added.state);
        // Past the budget, the oldest states go; the newcomer is last.
        while (state_bytes_ > state_budget_ && stated_.size() > 1) {
            drop_state(stated_.front(), released);
            ++dropped;
        }
    }
    states_dropped_ += dropped;
    if (obs::enabled()) {
        obs::registry().set_gauge("hapd.cache.state_bytes",
                                  static_cast<double>(state_bytes_));
        if (dropped > 0) obs::registry().add_counter("hapd.cache.states_dropped", dropped);
    }
    if (writer_.has_value()) {
        try {
            writer_->record_custom(rec);
        } catch (const std::exception&) {
            // Contain: the answer is already served from memory; a torn tail
            // on disk is tolerated at the next startup. Disable the writer —
            // after a partial record, appending more would corrupt the file.
            writer_.reset();
            ++persist_errors_;
        }
    }
    return result;
}

std::size_t PointCache::size() const {
    const core::MutexLock lock(mutex_);
    return entries_.size();
}

StateStore PointCache::states() const {
    const core::MutexLock lock(mutex_);
    return StateStore{stated_.size(), state_bytes_, states_dropped_};
}

std::size_t PointCache::persist_errors() const {
    const core::MutexLock lock(mutex_);
    return persist_errors_;
}

}  // namespace hap::service
