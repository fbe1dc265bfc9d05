#include "core/hap_cs.hpp"

#include <stdexcept>

#include "core/hap_population.hpp"
#include "sim/ring_buffer.hpp"

namespace hap::core {

HapCsParams HapCsParams::uniform(HapParams base, CsMessageBehavior all) {
    HapCsParams p;
    p.behavior.resize(base.apps.size());
    for (std::size_t i = 0; i < base.apps.size(); ++i)
        p.behavior[i].assign(base.apps[i].messages.size(), all);
    p.hap = std::move(base);
    p.validate();
    return p;
}

double HapCsParams::mean_chain_length() const {
    // Uniform-case closed form; heterogeneous chains mix types, so report
    // the behavior of the first message type as the representative value.
    const CsMessageBehavior& b = behavior.front().front();
    const double loop = b.p_response * b.p_next_request;
    return 1.0 / (1.0 - loop);
}

void HapCsParams::validate() const {
    hap.validate();
    if (behavior.size() != hap.apps.size())
        throw std::invalid_argument("HapCsParams: behavior shape mismatch");
    for (std::size_t i = 0; i < behavior.size(); ++i) {
        if (behavior[i].size() != hap.apps[i].messages.size())
            throw std::invalid_argument("HapCsParams: behavior shape mismatch");
        for (const CsMessageBehavior& b : behavior[i]) {
            if (b.request_service_rate <= 0.0 || b.response_service_rate <= 0.0)
                throw std::invalid_argument("HapCsParams: service rates must be positive");
            if (b.p_response < 0.0 || b.p_response > 1.0 || b.p_next_request < 0.0 ||
                b.p_next_request > 1.0)
                throw std::invalid_argument("HapCsParams: probabilities outside [0,1]");
            if (b.p_response * b.p_next_request >= 1.0)
                throw std::invalid_argument("HapCsParams: ps*pr must be < 1");
        }
    }
}

namespace {

struct CsMsg {
    double arrival;  // into the current queue
    double origin;   // first request of the transaction
    std::uint32_t i, j;
    std::uint32_t hops;  // requests completed so far in this chain
};

}  // namespace

// The population kernel (hap_population.hpp) with two service categories
// appended after its own: the forward (request) queue head, then the
// reverse (response) queue head. Admission bounds are the kernel's.
HapCsResult simulate_hap_cs(const HapCsParams& params, sim::RandomStream& rng,
                            const HapCsOptions& opts) {
    params.validate();
    detail::Population pop(params.hap);

    HapCsResult res;
    res.forward_number = stats::TimeWeightedStats(opts.warmup, 0.0);
    res.reverse_number = stats::TimeWeightedStats(opts.warmup, 0.0);

    sim::RingBuffer<CsMsg> fwd, rev;
    double now = 0.0;
    double fwd_busy_time = 0.0;
    double rev_busy_time = 0.0;

    const auto end_transaction = [&](const CsMsg& m) {
        if (m.origin < opts.warmup) return;
        res.transaction_time.add(now - m.origin);
        res.chain_length.add(static_cast<double>(m.hops));
        ++res.transactions;
    };

    while (true) {
        const double r_fwd =
            fwd.empty() ? 0.0
                        : params.behavior[fwd.front().i][fwd.front().j].request_service_rate;
        const double r_rev =
            rev.empty() ? 0.0
                        : params.behavior[rev.front().i][rev.front().j].response_service_rate;
        const double total = pop.base_sum() + r_fwd + r_rev;
        if (total <= 0.0) break;

        const double dt = rng.exponential(total);
        if (now >= opts.warmup) {
            if (!fwd.empty()) fwd_busy_time += dt;
            if (!rev.empty()) rev_busy_time += dt;
        }
        now += dt;
        if (now >= opts.horizon) break;

        const double u = rng.uniform() * total;
        const std::size_t k = pop.pick(u, total);
        if (k < pop.categories()) {
            if (!detail::Population::is_message(k)) {
                pop.apply(k);
                continue;
            }
            // New original request: pick message type j within type i.
            const std::size_t i = detail::Population::app_type(k);
            const detail::RateTable& rates = pop.rates();
            const std::uint32_t j =
                pop.message_type(i, rng.uniform() * rates.message_rate[i]) -
                rates.msg_off[i];
            fwd.push_back(CsMsg{now, now, static_cast<std::uint32_t>(i), j, 0});
            if (now >= opts.warmup)
                res.forward_number.update(now, static_cast<double>(fwd.size()));
        } else if (!fwd.empty() && (rev.empty() || u - pop.base_sum() < r_fwd)) {
            // Request served. (The empty-queue guards matter only when the
            // walk's rounding carries a draw just past a zero service rate.)
            CsMsg m = fwd.pop_front();
            if (m.arrival >= opts.warmup) {
                res.request_delay.add(now - m.arrival);
                ++res.requests;
            }
            ++m.hops;
            const CsMessageBehavior& b = params.behavior[m.i][m.j];
            if (rng.bernoulli(b.p_response)) {
                m.arrival = now;
                rev.push_back(m);
            } else {
                end_transaction(m);
            }
            if (now >= opts.warmup) {
                res.forward_number.update(now, static_cast<double>(fwd.size()));
                res.reverse_number.update(now, static_cast<double>(rev.size()));
            }
        } else if (!rev.empty()) {
            // Response served.
            CsMsg m = rev.pop_front();
            if (m.arrival >= opts.warmup) {
                res.response_delay.add(now - m.arrival);
                ++res.responses;
            }
            const CsMessageBehavior& b = params.behavior[m.i][m.j];
            if (rng.bernoulli(b.p_next_request)) {
                m.arrival = now;
                fwd.push_back(m);
            } else {
                end_transaction(m);
            }
            if (now >= opts.warmup) {
                res.forward_number.update(now, static_cast<double>(fwd.size()));
                res.reverse_number.update(now, static_cast<double>(rev.size()));
            }
        }
    }

    res.forward_number.finish(opts.horizon);
    res.reverse_number.finish(opts.horizon);
    const double observed = opts.horizon - opts.warmup;
    if (observed > 0.0) {
        res.forward_utilization = fwd_busy_time / observed;
        res.reverse_utilization = rev_busy_time / observed;
    }
    return res;
}

}  // namespace hap::core
