// The two hapd workloads. Each runs an in-process daemon (service::Hapd,
// 2 workers, loopback TCP, cache persisted to a fresh file under the work
// directory) and drives it only through service::Client.
//
//   serve_hot      closed loop over a known working set: every query is a
//                  hit, so protocol, key, lookup and reply dominate.
//   serve_explore  open loop of planners asking new what-ifs: warm misses,
//                  cold first misses, and re-asks that hit.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>

#include "common.hpp"
#include "core/admission.hpp"
#include "obs/metrics.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "sim/rng.hpp"

namespace hapbench {

namespace {

using hap::service::Client;
using hap::service::Hapd;
using hap::service::ModelSpec;
using hap::sim::RandomStream;

// Four service-rate families (message capacity mu''), the Fig. 11 axis.
constexpr double kFamilies[] = {17.0, 20.0, 24.0, 28.0};
constexpr std::size_t kNumFamilies = 4;
constexpr double kBaseLambda = 0.0055;  // the paper's user arrival rate

// Agreement required between the daemon's answers and cold solves. At
// tol 1e-7 the daemon's warm-start chains drift from a cold solve by up to
// ~1.1e-5 relative along a 16-point family (the stopping rule bounds the
// change per check, not the error), so 1e-6 would reject correct answers.
constexpr double kColdRelTol = 1e-4;

ModelSpec solve_point(std::size_t family, double scale) {
    ModelSpec m;
    m.service = kFamilies[family];
    m.lambda = kBaseLambda * scale;
    return m;
}

std::unique_ptr<Hapd> start_daemon(const std::string& cache_path) {
    hap::service::ServeOptions o;
    o.port = 0;
    o.threads = 2;
    o.cache_path = cache_path;
    o.tol = 1e-7;
    o.trunc_tol = 1e-7;
    o.zmax = 30;
    auto d = std::make_unique<Hapd>(std::move(o));
    d->start();
    return d;
}

Client connect(int port) { return Client::connect_tcp(port, "127.0.0.1", 5000); }

struct HistSample {
    std::uint64_t count = 0;
    double sum = 0.0;
};

HistSample histogram(const char* which) {
    for (const auto& [name, h] : hap::obs::registry().snapshot().histograms)
        if (name == which) return HistSample{h.count, h.sum};
    return {};
}

HistSample request_histogram() { return histogram("hapd.latency.request"); }

double mean_us(const HistSample& before, const HistSample& after) {
    const std::uint64_t n = after.count - before.count;
    return n == 0 ? 0.0 : 1e6 * (after.sum - before.sum) / static_cast<double>(n);
}

void scrape(int port, ServiceRecord& rec) {
    const Clock::time_point t0 = Clock::now();
    std::string body;
    {
        Span s("obs.scrape");
        Client c = connect(port);
        body = c.call(hap::service::build_simple_request(hap::service::Op::Metrics, "m"));
    }
    rec.scrape_ms.push_back(ms_since(t0));
    rec.scrape_bytes.push_back(static_cast<double>(body.size()));
}

// Send each lane's bodies in order on its own persistent connection, the
// lanes in parallel; returns the replies in the same shape.
std::vector<std::vector<std::string>> run_lanes(
    int port, const std::vector<std::vector<std::string>>& lanes) {
    std::vector<std::vector<std::string>> replies(lanes.size());
    std::vector<std::string> errors(lanes.size());
    std::vector<std::thread> threads;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        threads.emplace_back([&, l] {
            try {
                Client c = connect(port);
                for (const std::string& body : lanes[l]) replies[l].push_back(c.call(body));
            } catch (const std::exception& e) {
                errors[l] = e.what();
            }
        });
    }
    for (auto& t : threads) t.join();
    for (const std::string& e : errors)
        if (!e.empty()) throw std::runtime_error("population lane failed: " + e);
    return replies;
}

std::string result_text(const Json& reply) { return reply.at("result").dump(0); }

void count_source(const Json& reply, ServiceRecord& rec) {
    ++rec.replies_n;
    const Json* src = reply.find("source");
    if (src == nullptr) return;
    const std::string& s = src->as_string();
    if (s == "hit") ++rec.hits;
    if (s == "warm") ++rec.warm;
    if (s == "cold") ++rec.cold;
    if (s == "warm" || s == "cold") {
        const Json* b = reply.find("batch");
        rec.batch_sum += b == nullptr ? 1 : b->as_uint();
    }
}

void sample_pair(ServiceRecord& rec, const std::string& req, const std::string& reply) {
    if (rec.requests.size() >= 2048) return;
    rec.requests.push_back(req);
    rec.replies.push_back(reply);
}

// --- serve_hot ----------------------------------------------------------------

struct Entry {
    std::string key;
    std::string body;
    bool solve = false;
    ModelSpec model;
    double budget = 0.0;
};

struct HotShape {
    std::size_t lambdas;     // solve points per family
    std::size_t users;       // admission max_users 1..users
    std::size_t apps;        // admission max_apps 4, 8, .. 4*apps
    std::size_t restarts;    // set-up samples
};

HotShape hot_shape(Size size) {
    if (size == Size::Full) return {16, 32, 32, 25};
    return {2, 4, 4, 2};
}

double hot_scale(std::size_t i) { return 0.5 + 0.4 * static_cast<double>(i) / 15.0; }

std::vector<Entry> hot_working_set(const HotShape& shape) {
    std::vector<Entry> ws;
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
        for (std::size_t i = 0; i < shape.lambdas; ++i) {
            Entry e;
            e.solve = true;
            e.model = solve_point(f, hot_scale(i));
            e.key = hap::service::solve_key(e.model);
            ws.push_back(e);
        }
    }
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
        for (std::size_t u = 1; u <= shape.users; ++u) {
            for (std::size_t a = 1; a <= shape.apps; ++a) {
                Entry e;
                e.model.service = kFamilies[f];
                e.model.max_users = u;
                e.model.max_apps = 4 * a;
                e.budget = 0.1;
                e.key = hap::service::admission_key(e.model, e.budget);
                ws.push_back(e);
            }
        }
    }
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const std::string id = "w" + std::to_string(i);
        ws[i].body = ws[i].solve
                         ? hap::service::build_solve_request(ws[i].model, id)
                         : hap::service::build_admission_request(ws[i].model, ws[i].budget, id);
    }
    return ws;
}

// Check one population reply; returns its result text.
std::string check_population_reply(const Entry& e, const std::string& body,
                                   const Json& ref, std::size_t idx, RunResult& out) {
    const Json reply = Json::parse(body);
    if (!reply.at("ok").as_bool()) {
        out.fail("population query failed: " + body);
        return "";
    }
    const Json& r = reply.at("result");
    if (e.solve) {
        const Json* want = ref.find(e.key);
        if (want == nullptr) {
            out.fail("no serve_hot reference for " + e.key);
        } else if (!rel_close(r.at("mean_delay").as_number(), want->as_number(), kColdRelTol)) {
            out.fail("solve " + e.key + " mean_delay " + r.at("mean_delay").dump(0) +
                     " differs from the cold reference " + want->dump(0));
        }
    } else if (idx % 64 == 0) {
        hap::service::Request q;
        q.op = hap::service::Op::Admission;
        q.model = e.model;
        q.delay_budget = e.budget;
        const hap::core::AdmissionOutcome o =
            hap::core::evaluate_admission(e.model.params(), q.admission_query());
        if (r.at("admit").as_bool() != o.admit ||
            !rel_close(r.at("mean_rate").as_number(), o.mean_rate, 1e-12))
            out.fail("admission " + e.key + " differs from evaluate_admission");
    }
    return result_text(reply);
}

}  // namespace

RunResult run_serve_hot(const Config& cfg, Records& rec) {
    RunResult out;
    const HotShape shape = hot_shape(cfg.size);
    const std::vector<Entry> ws = hot_working_set(shape);
    std::size_t n_solve = 0;
    while (n_solve < ws.size() && ws[n_solve].solve) ++n_solve;
    const std::size_t n_adm = ws.size() - n_solve;
    const Json ref = read_ref(cfg, "serve_hot.json");

    const std::string cache_path = cfg.workdir + "/serve_hot-cache.jsonl";
    std::filesystem::remove(cache_path);

    // Populate a fresh daemon: two lanes (one connection each), each solving
    // two families in ascending lambda so misses warm-start along the chain,
    // then half of the admission points.
    std::vector<std::string> pop_result(ws.size());
    {
        std::unique_ptr<Hapd> d = start_daemon(cache_path);
        std::vector<std::vector<std::string>> lanes(2);
        std::vector<std::vector<std::size_t>> lane_idx(2);
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const std::size_t lane = ws[i].solve ? (i / shape.lambdas) % 2 : i % 2;
            lanes[lane].push_back(ws[i].body);
            lane_idx[lane].push_back(i);
        }
        const auto replies = run_lanes(d->port(), lanes);
        for (std::size_t l = 0; l < 2; ++l)
            for (std::size_t k = 0; k < replies[l].size(); ++k) {
                const std::size_t i = lane_idx[l][k];
                pop_result[i] = check_population_reply(ws[i], replies[l][k], ref, i, out);
            }
        d->stop();
    }

    // Set-up: restart the daemon on the persisted cache until it answers its
    // first query. The first restart also records the expected hit reply of
    // every working-set entry and checks it replays the populated result.
    std::vector<std::string> expected(ws.size());
    std::unique_ptr<Hapd> daemon;
    std::unique_ptr<Client> first;
    for (std::size_t k = 0; k < shape.restarts; ++k) {
        if (daemon) {
            first.reset();
            daemon->stop();
            daemon.reset();
        }
        const Clock::time_point t0 = Clock::now();
        daemon = start_daemon(cache_path);
        first = std::make_unique<Client>(connect(daemon->port()));
        const std::string reply = first->call(ws[0].body);
        out.setup_s.push_back(seconds_since(t0));
        if (k == 0) {
            for (std::size_t i = 0; i < ws.size(); ++i) {
                expected[i] = i == 0 ? reply : first->call(ws[i].body);
                const Json j = Json::parse(expected[i]);
                if (!j.at("ok").as_bool() || j.at("source").as_string() != "hit" ||
                    result_text(j) != pop_result[i])
                    out.fail("restored entry " + ws[i].key + " is not a byte-identical hit");
            }
        }
    }
    const int port = daemon->port();

    // Timed phase: two closed-loop clients on persistent connections, each
    // sending its next query as soon as the reply arrives; 50/50
    // solve/admission, uniform over the working set by seed.
    const HistSample h0 = request_histogram();
    const std::size_t kClients = 2;
    const double kWindow = 1.0;  // seconds
    const std::uint64_t kTraceWindow = 40000;
    std::vector<std::vector<double>> lat(kClients);
    std::vector<std::vector<std::vector<double>>> win(kClients);
    // (working-set index, traced, ms) of the queries in the trace window.
    std::vector<std::vector<std::tuple<std::size_t, bool, double>>> windowed(kClients);
    std::vector<std::uint64_t> mismatches(kClients, 0);
    std::vector<std::string> errors(kClients);
    std::vector<std::pair<std::string, std::string>> samples;
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(cfg.seconds));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            try {
                std::unique_ptr<Client> c;
                if (t == 0) {
                    c = std::move(first);
                } else {
                    OpSpan op("connect", 0, cfg.traced);
                    Span s("service.connect");
                    c = std::make_unique<Client>(connect(port));
                }
                RandomStream rs = RandomStream::substream(
                    cfg.seed, t, hap::sim::component_id("hapbench.serve_hot"));
                lat[t].reserve(1 << 20);
                for (std::uint64_t n = 0; Clock::now() < end; ++n) {
                    const std::size_t idx = rs.uniform() < 0.5
                                                ? static_cast<std::size_t>(rs.below(n_solve))
                                                : n_solve + static_cast<std::size_t>(rs.below(n_adm));
                    // A traced run alternates traced and untraced queries over
                    // each client's first kTraceWindow queries; the spans of a
                    // whole run would swamp the trace.
                    const bool in_window = cfg.traced && n < kTraceWindow;
                    const bool traced = in_window && n % 2 == 1;
                    const Clock::time_point q0 = Clock::now();
                    std::string reply;
                    {
                        OpSpan op("query", idx + 1, traced);
                        Span s("service.call");
                        reply = c->call(ws[idx].body);
                    }
                    const double ms = ms_since(q0);
                    lat[t].push_back(ms);
                    const auto w = static_cast<std::size_t>(
                        std::chrono::duration<double>(q0 - start).count() / kWindow);
                    if (w >= win[t].size()) win[t].resize(w + 1);
                    win[t][w].push_back(ms);
                    if (reply != expected[idx]) ++mismatches[t];
                    if (in_window) {
                        windowed[t].emplace_back(idx, traced, ms);
                        if (t == 0 && samples.size() < 2048)
                            samples.emplace_back(ws[idx].body, std::move(reply));
                    }
                }
            } catch (const std::exception& e) {
                errors[t] = e.what();
            }
        });
    }
    for (auto& th : threads) th.join();
    out.elapsed_s = seconds_since(start);
    const HistSample h1 = request_histogram();

    out.window_s = kWindow;
    out.windows.resize(static_cast<std::size_t>(cfg.seconds / kWindow));  // complete ones
    for (std::size_t t = 0; t < kClients; ++t) {
        for (std::size_t w = 0; w < std::min(win[t].size(), out.windows.size()); ++w)
            out.windows[w].insert(out.windows[w].end(), win[t][w].begin(), win[t][w].end());
        out.attempted += lat[t].size();
        out.op_ms.insert(out.op_ms.end(), lat[t].begin(), lat[t].end());
        for (std::uint64_t m = 0; m < mismatches[t]; ++m)
            out.fail("hit reply differs from the recorded reply");
        if (!errors[t].empty()) {
            ++out.attempted;
            out.fail("client " + std::to_string(t) + ": " + errors[t]);
        }
        // Every query is a hit; one key's hits are the same work.
        for (const auto& [idx, traced, ms] : windowed[t])
            rec.overhead.add(ws[idx].key, traced, ms);
    }

    ServiceRecord& s = rec.service;
    if (cfg.traced && !s.filled) {
        s.filled = true;
        for (const auto& [req, reply] : samples) sample_pair(s, req, reply);
        for (const auto& reply : s.replies) count_source(Json::parse(reply), s);
        s.server_request_us = mean_us(h0, h1);
        s.cache_entries = daemon->cache().size();
        s.cache_path = cache_path;
        {
            OpSpan op("scrape", 0, true);
            scrape(port, s);
        }
    }
    out.detail.set("working_set", Json::integer(static_cast<std::uint64_t>(ws.size())));
    out.detail.set("cache_entries",
                   Json::integer(static_cast<std::uint64_t>(daemon->cache().size())));
    first.reset();
    daemon->stop();
    return out;
}

// --- serve_explore ------------------------------------------------------------

namespace {

struct Query {
    double due = 0.0;  // seconds after the timed phase starts
    ModelSpec model;
    bool reask = false;
    std::string key;
    std::string body;
};

// Anchors: 4 lambdas per family, solved while the daemon is set up.
std::vector<ModelSpec> explore_anchors() {
    std::vector<ModelSpec> a;
    for (std::size_t f = 0; f < kNumFamilies; ++f)
        for (const double s : {0.55, 0.65, 0.75, 0.85}) a.push_back(solve_point(f, s));
    return a;
}

template <typename T>
void shuffle(std::vector<T>& v, RandomStream& rs) {
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<std::size_t>(rs.below(i))]);
}

// The seeded open-loop schedule. Arrivals are Poisson at `rate`, conditioned
// on their count: rate x seconds due times drawn uniformly over the timed
// phase and sorted. Given its count a Poisson process is exactly that, so
// the bursts and gaps stay; only the seed-to-seed change in the count goes.
// 40% of the queries, at seeded positions, re-ask an answered point (an
// anchor, or a new point due at least 3 s earlier, so that it is a hit);
// 60% ask a new lambda in [0.5, 0.9] x 0.0055. New points take the families
// in turn, and each family's lambdas one per stratum of [0.5, 0.9] in seeded
// order, so that every seed asks for the same amount of solve work. The
// 40/60 mix is assumed, not measured: no hapd query log exists to take it
// from.
std::vector<Query> explore_schedule(const Config& cfg, double rate,
                                    const std::vector<ModelSpec>& anchors) {
    RandomStream rs = RandomStream::substream(cfg.seed, 0,
                                              hap::sim::component_id("hapbench.serve_explore"));
    const auto n = static_cast<std::size_t>(std::max(1.0, std::round(rate * cfg.seconds)));
    std::vector<double> due(n);
    for (double& d : due) d = cfg.seconds * rs.uniform();
    std::sort(due.begin(), due.end());
    const auto n_reask = static_cast<std::size_t>(std::round(0.4 * static_cast<double>(n)));
    std::vector<char> reask(n, 0);
    std::fill(reask.begin(), reask.begin() + static_cast<std::ptrdiff_t>(n_reask), 1);
    shuffle(reask, rs);
    const std::size_t per_family = (n - n_reask + kNumFamilies - 1) / kNumFamilies;
    std::vector<std::vector<std::size_t>> strata(kNumFamilies);
    for (auto& st : strata) {
        for (std::size_t j = 0; j < per_family; ++j) st.push_back(j);
        shuffle(st, rs);
    }

    std::vector<Query> qs;
    std::vector<ModelSpec> news;
    std::vector<double> news_due;
    for (std::size_t i = 0; i < n; ++i) {
        Query q;
        q.due = due[i];
        if (reask[i] != 0) {
            std::size_t eligible = anchors.size();
            while (eligible - anchors.size() < news.size() &&
                   news_due[eligible - anchors.size()] <= q.due - 3.0)
                ++eligible;
            const auto pick = static_cast<std::size_t>(rs.below(eligible));
            q.model = pick < anchors.size() ? anchors[pick] : news[pick - anchors.size()];
            q.reask = true;
        } else {
            const std::size_t k = news.size();
            const std::size_t f = k % kNumFamilies;
            const double stratum = static_cast<double>(strata[f][k / kNumFamilies]);
            q.model = solve_point(
                f, 0.5 + 0.4 * (stratum + rs.uniform()) / static_cast<double>(per_family));
            news.push_back(q.model);
            news_due.push_back(q.due);
        }
        q.key = hap::service::solve_key(q.model);
        q.body = hap::service::build_solve_request(q.model, "q" + std::to_string(i));
        qs.push_back(std::move(q));
    }
    return qs;
}

struct Slot {
    std::string reply;
    std::string error;
    double latency_ms = 0.0;
    double late_ms = 0.0;
    bool traced = false;
};

}  // namespace

RunResult run_serve_explore(const Config& cfg, Records& rec) {
    RunResult out;
    const bool full = cfg.size == Size::Full;
    const std::size_t setups = full ? 5 : 1;
    const double rate = 8.0;  // queries per second
    const std::string cache_path = cfg.workdir + "/serve_explore-cache.jsonl";
    const std::vector<ModelSpec> anchors = explore_anchors();

    // Set-up: a fresh daemon solves the anchors (cold, then warm along each
    // family), restarts from its cache file (restored points carry no
    // lattice, so each family's first new miss is cold again), and answers
    // its first query.
    std::map<std::string, std::string> answered;  // key -> result text
    std::unique_ptr<Hapd> daemon;
    for (std::size_t k = 0; k < setups; ++k) {
        if (daemon) {
            daemon->stop();
            daemon.reset();
        }
        std::filesystem::remove(cache_path);
        answered.clear();
        const Clock::time_point t0 = Clock::now();
        double populate_s = 0.0;
        {
            std::unique_ptr<Hapd> d = start_daemon(cache_path);
            std::vector<std::vector<std::string>> lanes(2);
            std::vector<std::vector<std::size_t>> lane_idx(2);
            for (std::size_t i = 0; i < anchors.size(); ++i) {
                lanes[(i / 4) % 2].push_back(
                    hap::service::build_solve_request(anchors[i], "a" + std::to_string(i)));
                lane_idx[(i / 4) % 2].push_back(i);
            }
            const auto replies = run_lanes(d->port(), lanes);
            for (std::size_t l = 0; l < 2; ++l)
                for (std::size_t r = 0; r < replies[l].size(); ++r) {
                    const Json j = Json::parse(replies[l][r]);
                    if (!j.at("ok").as_bool()) {
                        out.fail("anchor solve failed: " + replies[l][r]);
                        continue;
                    }
                    answered[hap::service::solve_key(anchors[lane_idx[l][r]])] = result_text(j);
                }
            populate_s = seconds_since(t0);
            d->stop();  // drain time (poll ticks) is not set-up work
        }
        const Clock::time_point t1 = Clock::now();
        daemon = start_daemon(cache_path);
        Client c = connect(daemon->port());
        const std::string reply = c.call(hap::service::build_solve_request(anchors[0], "a0"));
        out.setup_s.push_back(populate_s + seconds_since(t1));
        const Json j = Json::parse(reply);
        if (!j.at("ok").as_bool() || j.at("source").as_string() != "hit")
            out.fail("restored anchor is not a hit");
    }
    const int port = daemon->port();

    const std::vector<Query> qs = explore_schedule(cfg, rate, anchors);
    std::vector<Slot> slots(qs.size());
    std::atomic<std::size_t> next{0};
    std::atomic<bool> done{false};
    ServiceRecord scrapes;
    const HistSample h0 = request_histogram();
    const HistSample sweep0 = histogram("hapd.latency.sweep");
    const Clock::time_point start = Clock::now();
    const auto due_at = [&](double s) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(s));
    };

    // Three senders, one connection per request (like `hapctl query`), and
    // a fourth thread scraping `metrics` at 1 Hz.
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 3; ++t) {
        threads.emplace_back([&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= qs.size()) break;
                const Clock::time_point due = due_at(qs[i].due);
                std::this_thread::sleep_until(due);
                Slot& s = slots[i];
                s.late_ms = std::max(0.0, ms_since(due));
                s.traced = cfg.traced && (i % 2 == 1);
                try {
                    OpSpan op("query", i + 1, s.traced);
                    std::unique_ptr<Client> c;
                    {
                        Span sp("service.connect");
                        c = std::make_unique<Client>(connect(port));
                    }
                    Span sp("service.call");
                    s.reply = c->call(qs[i].body);
                } catch (const std::exception& e) {
                    s.error = e.what();
                }
                s.latency_ms = ms_since(due);
            }
        });
    }
    std::thread scraper([&] {
        Clock::time_point tick = start;
        while (!done.load()) {
            tick += std::chrono::seconds(1);
            while (!done.load() && Clock::now() < tick)
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            if (done.load()) break;
            try {
                OpSpan op("scrape", 0, cfg.traced);
                scrape(port, scrapes);
            } catch (const std::exception&) {
                // A failed scrape is not a query; the daemon's health shows
                // in the query replies.
            }
        }
    });
    for (auto& th : threads) th.join();
    out.elapsed_s = seconds_since(start);
    done.store(true);
    scraper.join();
    const HistSample h1 = request_histogram();
    const HistSample sweep1 = histogram("hapd.latency.sweep");

    // Correctness: every query answered ok, and a repeated key (an anchor
    // included) returns a byte-identical result.
    std::vector<double> late;
    std::vector<std::pair<std::size_t, double>> misses;  // query index, daemon delay
    ServiceRecord& srec = rec.service;
    const bool fill = cfg.traced && !srec.filled;
    for (std::size_t i = 0; i < qs.size(); ++i) {
        const Slot& s = slots[i];
        ++out.attempted;
        if (!s.error.empty()) {
            out.fail("query " + std::to_string(i) + ": " + s.error);
            continue;
        }
        out.op_ms.push_back(s.latency_ms);
        late.push_back(s.late_ms);
        const Json j = Json::parse(s.reply);
        if (!j.at("ok").as_bool()) {
            out.fail("query " + std::to_string(i) + " answered " + s.reply);
            continue;
        }
        if (fill) {
            count_source(j, srec);
            sample_pair(srec, qs[i].body, s.reply);
        }
        const std::string text = result_text(j);
        const auto [it, inserted] = answered.emplace(qs[i].key, text);
        if (!inserted && it->second != text)
            out.fail("repeated key " + qs[i].key + " returned a different result");
        if (!qs[i].reask && j.at("source").as_string() != "hit")
            misses.emplace_back(i, j.at("result").at("mean_delay").as_number());
    }

    // Tracing overhead, measured untimed after the timed phase: the timed
    // queries differ in solve work and wait behind each other's solves, so
    // instead every answered key is asked four more times on the idle
    // daemon, traced, untraced, untraced, traced (so neither side is more
    // often the first after a pause), each a hit doing the same work, with
    // the same spans as a timed query.
    if (cfg.traced) {
        std::set<std::string> replayed;
        for (const Query& q : qs) {
            if (answered.count(q.key) == 0 || !replayed.insert(q.key).second) continue;
            for (const bool traced : {true, false, false, true}) {
                const Clock::time_point q0 = Clock::now();
                {
                    OpSpan op("overhead.query", 0, traced);
                    std::unique_ptr<Client> c;
                    {
                        Span sp("overhead.connect");
                        c = std::make_unique<Client>(connect(port));
                    }
                    Span sp("overhead.call");
                    c->call(q.body);
                }
                rec.overhead.add(q.key, traced, ms_since(q0));
            }
        }
    }

    // After the timed phase: re-solve 8 seeded miss points cold, in process,
    // and compare with the daemon's (warm) answers.
    RandomStream pick = RandomStream::substream(
        cfg.seed, 1, hap::sim::component_id("hapbench.serve_explore"));
    const std::size_t n_check = std::min<std::size_t>(full ? 8 : 2, misses.size());
    for (std::size_t k = 0; k < n_check; ++k) {
        const std::size_t at = k + static_cast<std::size_t>(pick.below(misses.size() - k));
        std::swap(misses[k], misses[at]);
        const auto [i, daemon_delay] = misses[k];
        hap::experiment::AnalyticPoint pt;
        pt.name = "explore.cold." + std::to_string(i);
        pt.params = qs[i].model.params();
        pt.coord = qs[i].model.lambda;
        SolvedPoint sp{pt.params, {}};
        {
            OpSpan op("resolve", i + 1, cfg.traced);
            Span s("experiment.run_analytic_sweep");
            sp.result = std::move(
                hap::experiment::run_analytic_sweep({pt}, hapd_solver_options()).front());
        }
        ++out.attempted;
        if (sp.result.failed() || !rel_close(sp.result.s0.mean_delay, daemon_delay, kColdRelTol))
            out.fail("miss " + qs[i].key + " answered " + std::to_string(daemon_delay) +
                     ", its cold re-solve " + std::to_string(sp.result.s0.mean_delay));
        if (cfg.traced && !rec.solver.filled) rec.solver.points.push_back(std::move(sp));
    }
    if (cfg.traced && !rec.solver.points.empty()) rec.solver.filled = true;

    if (fill) {
        srec.filled = true;
        srec.server_request_us = mean_us(h0, h1);
        srec.cache_entries = daemon->cache().size();
        srec.cache_path = cache_path;
        srec.scrape_ms = scrapes.scrape_ms;
        srec.scrape_bytes = scrapes.scrape_bytes;
    }
    out.detail.set("queries", Json::integer(static_cast<std::uint64_t>(qs.size())));
    out.detail.set("offered_qps", Json::number(rate));
    out.detail.set("gen_late_p99_ms", Json::number(quantile(late, 0.99)));
    // The daemon's own solve time per batch, beside the traced split of the
    // cold re-solves (layers.solve_wall_ms).
    out.detail.set("daemon_sweep_ms", Json::number(1e-3 * mean_us(sweep0, sweep1)));
    out.detail.set("misses_checked", Json::integer(static_cast<std::uint64_t>(n_check)));
    daemon->stop();
    return out;
}

// Cold solves of the serve_hot working-set solve points with the daemon's
// settings, the reference its warm answers must match within 1e-6.
bool write_ref_serve_hot(const Config& cfg) {
    Json doc = Json::object();
    for (const Entry& e : hot_working_set(hot_shape(Size::Full))) {
        if (!e.solve) continue;
        hap::experiment::AnalyticPoint pt;
        pt.name = e.key;
        pt.params = e.model.params();
        pt.coord = e.model.lambda;
        const auto r = hap::experiment::run_analytic_sweep({pt}, hapd_solver_options());
        if (r.front().failed()) return false;
        doc.set(e.key, Json::number(r.front().s0.mean_delay));
    }
    return write_ref(cfg, "serve_hot.json", doc);
}

}  // namespace hapbench
