// Internal: the HAP population kernel. Users arrive and depart, present
// users spawn applications, live applications emit messages: the
// (x, y_1..y_l) birth-death dynamics of the paper's Fig. 6, coded once for
// the three CTMC simulators that run it — the HAP/M/1 engine
// (simulate_hap_queue), the bare arrival stream (HapSource) and HAP-CS
// (simulate_hap_cs). Each appends its own service categories after the
// population ones. The instance-level simulator (hap_instance_sim) shares
// none of this and stays their independent oracle. Not part of the public
// simulator surface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/hap_params.hpp"

namespace hap::core::detail {

// Flat, cache-friendly image of the parameter hierarchy: per-type scalars in
// parallel arrays (the rate rebuild walks them in index order) and the
// message-type lattice flattened behind offsets, so the hot loop never
// chases nested vectors.
struct RateTable {
    std::size_t l = 0;
    std::vector<double> app_arrival;     // lambda_i (per user)
    std::vector<double> app_departure;   // mu_i (per instance)
    std::vector<double> message_rate;    // Lambda_i (per instance)
    std::vector<double> msg_cum;         // cumulative lambda_ij within type, flat
    std::vector<double> msg_service;     // mu_ij, flat, aligned with msg_cum
    std::vector<std::uint32_t> msg_off;  // type i owns [msg_off[i], msg_off[i+1])

    explicit RateTable(const HapParams& p) {
        l = p.apps.size();
        app_arrival.reserve(l);
        app_departure.reserve(l);
        message_rate.reserve(l);
        msg_off.reserve(l + 1);
        msg_off.push_back(0);
        for (const ApplicationType& a : p.apps) {
            app_arrival.push_back(a.arrival_rate);
            app_departure.push_back(a.departure_rate);
            message_rate.push_back(a.total_message_rate());
            double cum = 0.0;
            for (const MessageType& m : a.messages) {
                cum += m.arrival_rate;
                msg_cum.push_back(cum);
                msg_service.push_back(m.service_rate);
            }
            msg_off.push_back(static_cast<std::uint32_t>(msg_cum.size()));
        }
    }
};

// The population state and its event-category table. Category layout:
// [0] user arrival, [1] user departure, [2+3i]/[3+3i]/[4+3i] app-i
// arrival/departure/message. A caller's own categories (service
// completions) follow at index categories() and up; pick() reports any draw
// beyond the population total as categories().
//
// Rates change only on population events, so rebuild() runs only then; it
// caches the left-to-right running sums pref_[j] and their total
// base_sum(). The admission bounds (max_users, max_apps) zero the blocked
// arrival categories.
class Population {
public:
    explicit Population(const HapParams& p)
        : rates_(p),
          user_arrival_(p.user_arrival_rate),
          user_departure_(p.user_departure_rate),
          max_users_(p.max_users),
          max_apps_(p.max_apps),
          dynamic_users_(p.permanent_users == 0),
          nb_(2 + 3 * rates_.l),
          cat_(nb_, 0.0),
          pref_(nb_, 0.0),
          apps_(rates_.l, 0) {
        // Start at the stationary mean so the warmup is short. (Starting
        // empty biases short runs: users take ~1/mu to accumulate.)
        users_ = p.permanent_users;
        if (dynamic_users_) users_ = static_cast<std::uint64_t>(p.mean_users() + 0.5);
        for (std::size_t i = 0; i < rates_.l; ++i) {
            apps_[i] = static_cast<std::uint64_t>(
                static_cast<double>(users_) * rates_.app_arrival[i] /
                    rates_.app_departure[i] +
                0.5);
            total_apps_ += apps_[i];
        }
        rebuild();
    }

    const RateTable& rates() const noexcept { return rates_; }
    std::size_t categories() const noexcept { return nb_; }
    double base_sum() const noexcept { return base_sum_; }
    std::uint64_t users() const noexcept { return users_; }
    std::uint64_t total_apps() const noexcept { return total_apps_; }
    bool at_user_bound() const noexcept { return at_user_bound_; }
    bool at_app_bound() const noexcept { return at_app_bound_; }

    // Category k < categories() is a message emission of app type
    // app_type(k); every other population category is applied by apply().
    static bool is_message(std::size_t k) noexcept { return k >= 2 && (k - 2) % 3 == 2; }
    static std::size_t app_type(std::size_t k) noexcept { return (k - 2) / 3; }

    // The category u in [0, total) falls in, where `total` is base_sum()
    // plus the caller's categories. The semantic scan is the sequential
    // subtraction walk (walk() below); its float path is the definition,
    // because a reformulated reduction could round differently and flip the
    // pick on a knife-edge u. This counts prefix boundaries branchlessly
    // (pref_[j] is the exact boundary the walk tests after category j) and
    // accepts only when u clears the candidate's enclosing boundaries by
    // `margin`: the walk's accumulated rounding versus the stored prefixes
    // is < ~categories * eps * total ~= 4e-15 * total, so a 1e-12 * total
    // margin leaves ~250x slack and the two methods provably agree.
    // Knife-edge draws (~1e-12 of them) take the walk.
    std::size_t pick(double u, double total) const noexcept {
        const std::size_t nb = nb_;  // boundaries pref_[0..nb-1]
        std::size_t c = 0;
        if (rates_.l == 5) {
            // Fixed trip count for the paper's 5-type baseline: the count
            // fully unrolls into vector compares.
            for (std::size_t j = 0; j < 17; ++j) c += u >= pref_[j] ? 1 : 0;
        } else {
            for (std::size_t j = 0; j < nb; ++j) c += u >= pref_[j] ? 1 : 0;
        }
        const double margin = 1e-12 * total;
        const bool lo_ok = c == 0 || u - pref_[c - 1] > margin;
        const bool hi_ok = c == nb || pref_[c] - u > margin;
        return lo_ok && hi_ok ? c : walk(u);
    }

    // The defining sequential walk: subtract each category's rate from u
    // until u falls inside one; categories() when u is past them all.
    std::size_t walk(double u) const noexcept {
        std::size_t k = 0;
        while (k < nb_ && u >= cat_[k]) {
            u -= cat_[k];
            ++k;
        }
        return k;
    }

    // Apply population event k (a user or application arrival/departure,
    // not a message) and refresh the rates.
    void apply(std::size_t k) noexcept {
        if (k == 0) {
            ++users_;
        } else if (k == 1) {
            --users_;
        } else if ((k - 2) % 3 == 0) {
            ++apps_[app_type(k)];
            ++total_apps_;
        } else {
            --apps_[app_type(k)];
            --total_apps_;
        }
        rebuild();
    }

    // Flat message-type index for app type i, given v = U * message_rate[i]:
    // a branchless count of cleared cumulative thresholds, the same
    // comparisons as the linear walk (msg_cum is cumulative, so the walk
    // never mutates v).
    std::uint32_t message_type(std::size_t i, double v) const noexcept {
        const std::uint32_t b = rates_.msg_off[i];
        const std::uint32_t e = rates_.msg_off[i + 1];
        std::uint32_t j = b;
        for (std::uint32_t t = b; t + 1 < e; ++t) j += v >= rates_.msg_cum[t] ? 1u : 0u;
        return j;
    }

private:
    // Rebuild the category entries and their left-to-right running sums.
    // The expression and reduction order are fixed: the prefix sums are the
    // boundaries pick() compares against, and the simulators' draw streams
    // depend on them bit for bit.
    void rebuild() noexcept {
        const double xd = static_cast<double>(users_);
        double total = 0.0;
        const bool user_ok = dynamic_users_ && (max_users_ == 0 || users_ < max_users_);
        total += cat_[0] = user_ok ? user_arrival_ : 0.0;
        pref_[0] = total;
        total += cat_[1] = dynamic_users_ ? xd * user_departure_ : 0.0;
        pref_[1] = total;
        const bool app_ok = max_apps_ == 0 || total_apps_ < max_apps_;
        for (std::size_t i = 0; i < rates_.l; ++i) {
            const double yd = static_cast<double>(apps_[i]);
            total += cat_[2 + 3 * i] = app_ok ? xd * rates_.app_arrival[i] : 0.0;
            pref_[2 + 3 * i] = total;
            total += cat_[3 + 3 * i] = yd * rates_.app_departure[i];
            pref_[3 + 3 * i] = total;
            total += cat_[4 + 3 * i] = yd * rates_.message_rate[i];
            pref_[4 + 3 * i] = total;
        }
        base_sum_ = total;
        at_user_bound_ = dynamic_users_ && max_users_ > 0 && users_ >= max_users_;
        at_app_bound_ = !app_ok;
    }

    RateTable rates_;
    double user_arrival_;
    double user_departure_;
    std::size_t max_users_;
    std::size_t max_apps_;
    bool dynamic_users_;
    std::size_t nb_;
    std::vector<double> cat_;
    std::vector<double> pref_;  // running left-to-right sums of cat_[0..j]
    double base_sum_ = 0.0;
    bool at_user_bound_ = false;
    bool at_app_bound_ = false;
    std::uint64_t users_ = 0;
    std::uint64_t total_apps_ = 0;
    std::vector<std::uint64_t> apps_;
};

}  // namespace hap::core::detail
