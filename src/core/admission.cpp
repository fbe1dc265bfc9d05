#include "core/admission.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/solution2.hpp"

namespace hap::core {

namespace {

// Unstable queues report mean_delay = 0 with stable=false; map that to
// infinity so feasibility checks treat saturation as a budget violation.
double delay_or_inf(const Solution2& sol, double service_rate) {
    const auto q = sol.solve_queue(service_rate);
    return q.stable ? q.mean_delay : std::numeric_limits<double>::infinity();
}

}  // namespace

void AdmissionQuery::validate() const {
    HAP_CHECK_FINITE(service_rate);
    HAP_CHECK_FINITE(delay_budget);
    HAP_PRECOND(service_rate > 0.0);
    HAP_PRECOND(delay_budget >= 0.0);
}

AdmissionOutcome evaluate_admission(const HapParams& base, const AdmissionQuery& q) {
    q.validate();
    HapParams p = base;
    p.max_users = q.max_users;
    p.max_apps = q.max_apps;
    const Solution2 sol(p);
    AdmissionOutcome out;
    out.mean_rate = sol.mean_rate();
    const auto queue = sol.solve_queue(q.service_rate);
    out.sigma = queue.sigma;
    out.stable = queue.stable;
    out.mean_delay =
        queue.stable ? queue.mean_delay : std::numeric_limits<double>::infinity();
    out.admit = out.stable &&
                (q.delay_budget == 0.0 ||  // haplint: allow(float-equality) 0 is the report-only sentinel, set exactly
                 out.mean_delay <= q.delay_budget);
    return out;
}

double required_bandwidth(const HapParams& params, double delay_budget) {
    HAP_CHECK_FINITE(delay_budget);
    if (delay_budget <= 0.0)
        throw std::invalid_argument("required_bandwidth: non-positive budget");
    const Solution2 sol(params);
    const double lambda_bar = sol.mean_rate();
    // The delay can never drop below 1/mu; the budget is infeasible only at 0.
    double lo = lambda_bar * 1.0001;  // just above instability
    double hi = std::max(lambda_bar * 4.0, 2.0 / delay_budget);
    while (delay_or_inf(sol, hi) > delay_budget) {
        hi *= 2.0;
        if (hi > 1e12) throw std::runtime_error("required_bandwidth: budget unreachable");
    }
    if (delay_or_inf(sol, lo) <= delay_budget) return lo;
    for (int iter = 0; iter < 200 && hi / lo > 1.0 + 1e-10; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (delay_or_inf(sol, mid) > delay_budget)
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

double admissible_workload(const HapParams& params, double service_rate,
                           double delay_budget) {
    HAP_CHECK_FINITE(service_rate);
    HAP_CHECK_FINITE(delay_budget);
    HAP_PRECOND(service_rate > 0.0);
    if (delay_budget <= 1.0 / service_rate) {
        throw std::invalid_argument(
            "admissible_workload: budget below the bare service time");
    }
    // lambda-bar scales linearly with the user arrival rate (pinned-user
    // HAPs scale the application arrival rate instead); bisect the scale.
    const auto scaled = [&](double scale) {
        HapParams p = params;
        if (p.permanent_users > 0) {
            for (ApplicationType& a : p.apps) a.arrival_rate *= scale;
        } else {
            p.user_arrival_rate *= scale;
        }
        return p;
    };
    const auto feasible = [&](double scale, double& rate_out) {
        const HapParams p = scaled(scale);
        const Solution2 sol(p);
        rate_out = sol.mean_rate();
        if (rate_out >= service_rate * 0.999) return false;  // (near-)unstable
        return delay_or_inf(sol, service_rate) <= delay_budget;
    };

    double rate = 0.0;
    double lo = 1e-6, hi = 1.0;
    if (!feasible(lo, rate))
        throw std::runtime_error("admissible_workload: budget infeasible at any load");
    for (int k = 0; k < 60 && feasible(hi, rate); ++k) {
        lo = hi;
        hi *= 2.0;
    }
    for (int iter = 0; iter < 100 && hi / lo > 1.0 + 1e-9; ++iter) {
        const double mid = 0.5 * (lo + hi);
        (feasible(mid, rate) ? lo : hi) = mid;
    }
    feasible(lo, rate);
    return rate;
}

std::vector<DecisionRow> admission_decision_table(const HapParams& base,
                                                  double service_rate,
                                                  double delay_budget,
                                                  std::size_t max_user_bound,
                                                  std::size_t app_step) {
    HAP_CHECK_FINITE(service_rate);
    HAP_CHECK_FINITE(delay_budget);
    HAP_PRECOND(service_rate > 0.0 && delay_budget > 0.0 && app_step > 0);
    std::vector<DecisionRow> rows;
    const double apps_per_user =
        base.mean_apps() / std::max(base.mean_users(), 1e-12);
    for (std::size_t u = 1; u <= max_user_bound; ++u) {
        // Start from a generous app bound and tighten while feasible.
        const auto cap0 = static_cast<std::size_t>(
            std::ceil(3.0 * apps_per_user * static_cast<double>(u))) + app_step;
        // Tightening the app cap only reduces offered load and delay, so the
        // FIRST feasible cap walking downward is the largest admissible one.
        DecisionRow row{u, 0, 0.0, 0.0, false};
        for (std::size_t cap = cap0; cap >= app_step; cap -= app_step) {
            HapParams p = base;
            p.max_users = u;
            p.max_apps = cap;
            const Solution2 sol(p);
            const auto q = sol.solve_queue(service_rate);
            if (q.mean_delay <= delay_budget) {
                row = DecisionRow{u, cap, sol.mean_rate(), q.mean_delay, true};
                break;
            }
        }
        rows.push_back(row);
    }
    return rows;
}

}  // namespace hap::core
