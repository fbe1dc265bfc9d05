#include "service/cache.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

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

PointCache::PointCache(std::string path, std::string config) {
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

std::optional<NearestState> PointCache::nearest(const std::string& family,
                                                double coord) const {
    const core::MutexLock lock(mutex_);
    const Entry* best = nullptr;
    double best_dist = 0.0;
    for (const Entry& e : entries_) {
        if (e.family != family || e.state.empty() || e.quality != "ok") continue;
        const double dist = std::abs(e.coord - coord);
        if (best == nullptr || dist < best_dist ||
            (dist == best_dist && e.coord < best->coord)) {  // haplint: allow(float-equality) deterministic tie-break on identical distances
            best = &e;
            best_dist = dist;
        }
    }
    if (best == nullptr) return std::nullopt;
    return NearestState{best->state, best->coord};
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

void PointCache::put(Entry entry) {
    const auto [it, fresh] = index_.try_emplace(entry.key, entries_.size());
    if (fresh) {
        entries_.push_back(std::move(entry));
    } else {
        entries_[it->second] = std::move(entry);
    }
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
    e.state = std::move(point.state);

    const core::MutexLock lock(mutex_);
    put(std::move(e));
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

std::size_t PointCache::persist_errors() const {
    const core::MutexLock lock(mutex_);
    return persist_errors_;
}

}  // namespace hap::service
