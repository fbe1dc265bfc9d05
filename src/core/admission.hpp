// Broadband network-control computations built on Solution 2 (paper
// Section 6): HAP as "the computational base to estimate the admissible
// workload for a given bandwidth (admission control), or the required
// bandwidth for a given workload (bandwidth allocation)", plus the
// user/application-bounded evaluation behind Section 5's Fig. 20 and the
// admission decision table the paper sketches for ATM interfaces.
#pragma once

#include <cstddef>
#include <vector>

#include "core/hap_params.hpp"

namespace hap::core {

// One admission-control question, the paper's Fig. 20 tuple: CAN this many
// users (and application instances) be carried at this CAPACITY within this
// delay THRESHOLD? Shared by bench/fig20_admission, hapctl, and the hapd
// service so the tuple and its validation exist exactly once.
struct AdmissionQuery {
    std::size_t max_users = 0;   // admitted-user bound; 0 = unbounded
    std::size_t max_apps = 0;    // total application-instance bound; 0 = unbounded
    double service_rate = 0.0;   // capacity, messages/s
    double delay_budget = 0.0;   // threshold, seconds; 0 = report-only (no verdict)
    // Throws ContractViolation (finite, service_rate > 0, delay_budget >= 0).
    void validate() const;
};

// The answer: the bounded workload's Solution-2 operating point plus the
// verdict. `admit` is true when the queue is stable and (with a nonzero
// threshold) the mean delay meets it; report-only queries admit on stability
// alone. An unstable queue reports mean_delay = +infinity.
struct AdmissionOutcome {
    double mean_rate = 0.0;   // lambda-bar under the query's bounds
    double sigma = 0.0;
    double mean_delay = 0.0;  // +inf when unstable
    bool stable = false;
    bool admit = false;
};

// Evaluate one admission query against `base` with the query's bounds
// substituted (the query owns max_users/max_apps; base's bounds are ignored).
AdmissionOutcome evaluate_admission(const HapParams& base, const AdmissionQuery& q);

// Bandwidth allocation: smallest service rate (messages/s) such that the
// Solution-2 mean delay does not exceed `delay_budget`. Binary search over
// mu''; throws std::invalid_argument on an infeasible budget.
double required_bandwidth(const HapParams& params, double delay_budget);

// Admission control: largest scale factor on the user arrival rate (i.e. on
// the admitted workload lambda-bar, which is linear in lambda) such that the
// Solution-2 mean delay stays within `delay_budget` at the given bandwidth.
// Returns the admissible lambda-bar.
double admissible_workload(const HapParams& params, double service_rate,
                           double delay_budget);

// Admission decision table: for each candidate user bound, the tightest
// application bound (searched in steps of `app_step`) that meets the delay
// budget, with the achieved delay — the table-lookup structure the paper
// proposes for VC/VP admission at ATM interfaces.
struct DecisionRow {
    std::size_t max_users;
    std::size_t max_apps;
    double mean_rate;
    double mean_delay;
    bool feasible;
};
std::vector<DecisionRow> admission_decision_table(const HapParams& base,
                                                  double service_rate,
                                                  double delay_budget,
                                                  std::size_t max_user_bound,
                                                  std::size_t app_step = 5);

}  // namespace hap::core
