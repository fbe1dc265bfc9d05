// Tests for fault containment: the fault-injection plan itself, the
// all-failures-collected parallel_for contract, contained simulation sweeps
// (neighbor bit-identity, NaN containment, all-failed), the analytic
// fallback chain (recovery, degradation, hard failure), and deterministic
// solver caps across thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hap_params.hpp"
#include "core/solution0.hpp"
#include "experiment/experiment.hpp"
#include "parallel/parallel_for.hpp"

namespace {

using hap::experiment::AnalyticPoint;
using hap::experiment::AnalyticSweepOptions;
using hap::experiment::ContainedSweep;
using hap::experiment::ExperimentRunner;
using hap::experiment::FailureRecord;
using hap::experiment::FaultKind;
using hap::experiment::FaultPlan;
using hap::experiment::MergedResult;
using hap::experiment::ReplicationResult;
using hap::experiment::Scenario;
using hap::experiment::set_fault_plan;
using hap::parallel::ParallelForError;

// Every test that injects faults clears the process-wide plan on exit, so
// test order never leaks a fault into an unrelated case.
struct PlanGuard {
    explicit PlanGuard(const std::string& spec) { set_fault_plan(FaultPlan::parse(spec)); }
    ~PlanGuard() { set_fault_plan(FaultPlan{}); }
};

std::vector<Scenario> small_grid() {
    std::vector<Scenario> grid;
    for (const char* nm : {"test.fault.a", "test.fault.b", "test.fault.c"}) {
        Scenario sc;
        sc.name = nm;
        sc.params = hap::core::HapParams::paper_baseline(20.0);
        sc.horizon = 5e3;
        sc.warmup = 500;
        sc.replications = 4;
        grid.push_back(sc);
    }
    return grid;
}

std::vector<AnalyticPoint> analytic_grid() {
    std::vector<AnalyticPoint> grid;
    for (const double s : {0.8, 0.9, 1.0}) {
        AnalyticPoint pt;
        pt.name = "test.fault.analytic.scale=" + std::to_string(s);
        pt.params = hap::core::HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 10.0);
        pt.params.user_arrival_rate *= s;
        pt.coord = s;
        grid.push_back(pt);
    }
    return grid;
}

AnalyticSweepOptions analytic_options() {
    // Independent (cold) points: recovery hops re-solve with exactly the
    // primary's settings, so a recovered point must be bit-identical to a
    // clean sweep's.
    AnalyticSweepOptions opts;
    opts.warm_start = false;
    opts.adaptive = false;
    opts.solver.tol = 1e-8;
    opts.solver.max_messages = 120;
    return opts;
}

void expect_merged_eq(const MergedResult& a, const MergedResult& b) {
    EXPECT_EQ(a.replications, b.replications);
    EXPECT_EQ(a.delay.count(), b.delay.count());
    EXPECT_EQ(a.delay.mean(), b.delay.mean());
    EXPECT_EQ(a.delay.variance(), b.delay.variance());
    EXPECT_EQ(a.delay.max(), b.delay.max());
    EXPECT_EQ(a.number.mean(), b.number.mean());
    EXPECT_EQ(a.number.elapsed(), b.number.elapsed());
    EXPECT_EQ(a.busy.busy_fraction(), b.busy.busy_fraction());
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.losses, b.losses);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.observed_time, b.observed_time);
    EXPECT_EQ(a.delay_mean.mean, b.delay_mean.mean);
    EXPECT_EQ(a.delay_mean.half_width, b.delay_mean.half_width);
    EXPECT_EQ(a.number_mean.mean, b.number_mean.mean);
    EXPECT_EQ(a.utilization.mean, b.utilization.mean);
    EXPECT_EQ(a.throughput.mean, b.throughput.mean);
    EXPECT_EQ(a.loss_fraction.mean, b.loss_fraction.mean);
}

TEST(FaultPlan, ParsesKindsTargetsAndReps) {
    const FaultPlan plan =
        FaultPlan::parse("throw@sweep.a#3,nan@lambda=1,noconv@pt,write@out.json");
    ASSERT_EQ(plan.specs().size(), 4u);
    EXPECT_EQ(plan.specs()[0].kind, FaultKind::Throw);
    EXPECT_EQ(plan.specs()[0].target, "sweep.a");
    EXPECT_FALSE(plan.specs()[0].any_run);
    EXPECT_EQ(plan.specs()[0].run_id, 3u);
    EXPECT_EQ(plan.specs()[1].kind, FaultKind::Nan);
    EXPECT_TRUE(plan.specs()[1].any_run);
    EXPECT_EQ(plan.specs()[2].kind, FaultKind::NoConverge);
    EXPECT_EQ(plan.specs()[3].kind, FaultKind::WriteAbort);
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, MatchesBySubstringRepAndWildcard) {
    const FaultPlan plan = FaultPlan::parse("throw@fault.b#1,nan@*");
    EXPECT_TRUE(plan.matches(FaultKind::Throw, "test.fault.b", 1));
    EXPECT_FALSE(plan.matches(FaultKind::Throw, "test.fault.b", 2));  // rep pinned
    EXPECT_FALSE(plan.matches(FaultKind::Throw, "test.fault.a", 1));  // no substring
    EXPECT_TRUE(plan.matches(FaultKind::Nan, "test.fault.b", 1));  // wildcard
    EXPECT_TRUE(plan.matches(FaultKind::Nan, "anything.at.all", 7));
    EXPECT_FALSE(plan.matches(FaultKind::NoConverge, "test.fault.b", 1));  // kind mismatch
}

TEST(FaultPlan, MalformedSpecsThrow) {
    EXPECT_THROW(FaultPlan::parse("nokind"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("@target"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("explode@x"), std::invalid_argument);
    // No budget@ kind: a sweep cap is what noconv@ injects.
    EXPECT_THROW(FaultPlan::parse("budget@x"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("throw@"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("throw@x#"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("throw@x#two"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("throw@ok,bad"), std::invalid_argument);
}

TEST(Runner, ParallelForCollectsEveryFailureInIndexOrder) {
    // Three jobs out of 64 throw; every job still runs, and the collected
    // failure set is identical — and index-ordered — at 1 and 8 threads.
    const auto run = [](std::size_t threads) {
        std::atomic<std::size_t> ran{0};
        std::vector<std::size_t> indices;
        try {
            ExperimentRunner(threads).parallel_for(64, [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 3 || i == 17 || i == 41)
                    throw std::runtime_error("job " + std::to_string(i));
            });
            ADD_FAILURE() << "parallel_for did not throw";
        } catch (const ParallelForError& e) {
            EXPECT_EQ(ran.load(), 64u);
            for (const auto& err : e.errors()) indices.push_back(err.index);
            EXPECT_NE(std::string(e.what()).find("3 job(s) failed"), std::string::npos);
            EXPECT_NE(std::string(e.what()).find("job 3"), std::string::npos);
        }
        return indices;
    };
    const std::vector<std::size_t> expected{3, 17, 41};
    EXPECT_EQ(run(1), expected);
    EXPECT_EQ(run(8), expected);
}

TEST(ContainedSweep, NoFaultsMatchesRunAllBitIdentical) {
    const auto grid = small_grid();
    const ExperimentRunner runner(8);
    const ContainedSweep contained = runner.run_all_contained(grid);
    const std::vector<MergedResult> plain = runner.run_all(grid);
    ASSERT_EQ(contained.merged.size(), plain.size());
    EXPECT_TRUE(contained.failures.empty());
    for (std::size_t s = 0; s < grid.size(); ++s) {
        EXPECT_EQ(contained.survivors[s], grid[s].replications);
        expect_merged_eq(contained.merged[s], plain[s]);
    }
}

TEST(ContainedSweep, InjectedFaultLeavesNeighborsBitIdentical) {
    const auto grid = small_grid();
    ContainedSweep faulted1;
    ContainedSweep faulted8;
    {
        const PlanGuard guard("throw@test.fault.b#1");
        faulted1 = ExperimentRunner(1).run_all_contained(grid);
        faulted8 = ExperimentRunner(8).run_all_contained(grid);
    }
    const std::vector<MergedResult> clean = ExperimentRunner(8).run_all(grid);

    // Exactly the injected job failed, with a reproducible record.
    ASSERT_EQ(faulted8.failures.size(), 1u);
    const FailureRecord& f = faulted8.failures.front();
    EXPECT_EQ(f.scenario, "test.fault.b");
    EXPECT_EQ(f.run_id, 1u);
    EXPECT_EQ(f.job_index, 5u);  // flattened: a=0..3, b=4..7
    EXPECT_EQ(f.stage, "simulate");
    EXPECT_NE(f.what.find("injected fault: throw@test.fault.b#1"), std::string::npos);
    EXPECT_EQ(faulted8.survivors, (std::vector<std::size_t>{4, 3, 4}));

    // Non-faulted scenarios are bit-identical to a fault-free run_all, and
    // the whole contained result is thread-count invariant.
    expect_merged_eq(faulted8.merged[0], clean[0]);
    expect_merged_eq(faulted8.merged[2], clean[2]);
    ASSERT_EQ(faulted1.failures.size(), 1u);
    EXPECT_EQ(faulted1.failures.front().job_index, f.job_index);
    EXPECT_EQ(faulted1.failures.front().what, f.what);
    EXPECT_EQ(faulted1.survivors, faulted8.survivors);
    for (std::size_t s = 0; s < grid.size(); ++s)
        expect_merged_eq(faulted1.merged[s], faulted8.merged[s]);
}

TEST(ContainedSweep, NanPoisonIsContainedAtValidation) {
    const auto grid = small_grid();
    ContainedSweep sweep;
    {
        const PlanGuard guard("nan@test.fault.a#0");
        sweep = ExperimentRunner(4).run_all_contained(grid);
    }
    ASSERT_EQ(sweep.failures.size(), 1u);
    EXPECT_EQ(sweep.failures.front().scenario, "test.fault.a");
    EXPECT_EQ(sweep.failures.front().stage, "validate");
    EXPECT_EQ(sweep.survivors[0], 3u);

    // The poisoned replication never reached the merge: the scenario's
    // merged result equals a clean merge of the surviving replications.
    std::vector<ReplicationResult> runs = ExperimentRunner(1).replicate(grid[0]);
    runs.erase(runs.begin());
    expect_merged_eq(sweep.merged[0], MergedResult::merge(runs));
}

TEST(ContainedSweep, AllJobsFailedThrows) {
    const auto grid = small_grid();
    const PlanGuard guard("throw@*");
    try {
        (void)ExperimentRunner(4).run_all_contained(grid);
        ADD_FAILURE() << "run_all_contained did not throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("all 12 jobs failed"), std::string::npos);
    }
}

TEST(ContainedSweep, StrictViewsThrowOnInjectedFaults) {
    // replicate, run and run_all drain the same fault-contained loop as
    // run_all_contained, so injected faults and replication validation reach
    // them too; being strict, they throw instead of merging around the loss.
    const auto grid = small_grid();
    const ExperimentRunner runner(4);
    const MergedResult clean_a = runner.run(grid[0]);
    const auto expect_throw_naming = [](const auto& call, const std::string& needle) {
        try {
            (void)call();
            ADD_FAILURE() << "no throw; expected one naming " << needle;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
        }
    };
    {
        const PlanGuard guard("throw@test.fault.b#1");
        expect_throw_naming([&] { return runner.run_all(grid); },
                            "run_all: 1 job(s) failed; first test.fault.b#1 (simulate)");
        expect_throw_naming([&] { return runner.run(grid[1]); },
                            "test.fault.b#1 (simulate)");
        expect_throw_naming([&] { return runner.replicate(grid[1]); },
                            "test.fault.b#1 (simulate)");
        // A scenario the plan does not match runs exactly as without a plan.
        expect_merged_eq(runner.run(grid[0]), clean_a);
    }
    {
        const PlanGuard guard("nan@test.fault.a#0");
        expect_throw_naming([&] { return runner.run_all(grid); },
                            "test.fault.a#0 (validate)");
    }
}

TEST(AnalyticSweep, FallbackRecoversInjectedNonConvergence) {
    const auto grid = analytic_grid();
    const AnalyticSweepOptions opts = analytic_options();
    const auto clean = run_analytic_sweep(grid, opts);
    std::vector<FailureRecord> failures;
    std::vector<hap::experiment::AnalyticPointResult> faulted;
    {
        const PlanGuard guard("noconv@scale=0.9");
        faulted = run_analytic_sweep(grid, opts, &failures);
    }
    ASSERT_EQ(faulted.size(), grid.size());
    EXPECT_TRUE(failures.empty());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(faulted[i].quality, "ok") << grid[i].name;
        EXPECT_TRUE(faulted[i].s0.converged) << grid[i].name;
        EXPECT_EQ(faulted[i].fallback_hops, i == 1 ? 1u : 0u) << grid[i].name;
        // The recovery hop re-solves with the primary's own settings, so the
        // whole sweep is bit-identical to a fault-free one.
        EXPECT_EQ(faulted[i].s0.mean_delay, clean[i].s0.mean_delay) << grid[i].name;
        EXPECT_EQ(faulted[i].s0.utilization, clean[i].s0.utilization) << grid[i].name;
        EXPECT_EQ(faulted[i].s0.sweeps, clean[i].s0.sweeps) << grid[i].name;
    }
}

TEST(AnalyticSweep, PointPastFallbackIsMarkedDegraded) {
    // A sweep whose capped effort genuinely cannot converge (1 sweep on every
    // hop: the primary, the cold restart and the worst-case box) ends
    // "degraded": the best non-converged numbers are kept, the error
    // preserved, and nothing throws.
    std::vector<AnalyticPoint> grid = analytic_grid();
    grid.resize(1);
    AnalyticSweepOptions opts = analytic_options();
    opts.solver.max_sweeps = 1;
    std::vector<FailureRecord> failures;
    const auto res = run_analytic_sweep(grid, opts, &failures);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].quality, "degraded");
    EXPECT_EQ(res[0].fallback_hops, 2u);
    EXPECT_EQ(res[0].s0.sweeps, 1u);  // the last hop ran under the same cap
    EXPECT_FALSE(res[0].s0.converged);
    EXPECT_FALSE(res[0].failed());
    EXPECT_FALSE(res[0].error.empty());
    EXPECT_TRUE(failures.empty());  // degraded is reported per point, not as a failure
}

TEST(AnalyticSweep, InvalidPointFailsOthersSurvive) {
    // A point the solver rejects outright (heterogeneous application types)
    // fails through every hop; the rest of the sweep is unaffected and one
    // FailureRecord names the point.
    auto grid = analytic_grid();
    grid[1].params.apps.push_back(grid[1].params.apps[0]);
    grid[1].params.apps[1].arrival_rate *= 2.0;
    std::vector<FailureRecord> failures;
    const auto res = run_analytic_sweep(grid, analytic_options(), &failures);
    ASSERT_EQ(res.size(), grid.size());
    EXPECT_EQ(res[0].quality, "ok");
    EXPECT_TRUE(res[0].s0.converged);
    EXPECT_EQ(res[2].quality, "ok");
    EXPECT_TRUE(res[1].failed());
    EXPECT_NE(res[1].error.find("homogeneous"), std::string::npos);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures.front().scenario, grid[1].name);
    EXPECT_EQ(failures.front().job_index, 1u);
    EXPECT_EQ(failures.front().stage, "analytic");

    // All points failing is unreportable and throws.
    const std::vector<AnalyticPoint> bad(1, grid[1]);
    EXPECT_THROW((void)run_analytic_sweep(bad, analytic_options()), std::runtime_error);
}

TEST(Budget, Solution0ExhaustionDeterministicAcrossThreads) {
    hap::core::Solution0Options opts;
    opts.tol = 1e-8;
    opts.max_messages = 120;
    opts.max_sweeps = 10;
    const hap::core::HapParams params =
        hap::core::HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 10.0);

    const auto solve = [&] { return hap::core::solve_solution0(params, opts); };
    const hap::core::Solution0Result ref = solve();
    EXPECT_FALSE(ref.budget_exhausted);  // only a refused box sets it
    EXPECT_FALSE(ref.converged);
    EXPECT_EQ(ref.sweeps, 10u);

    // A capped solve is a pure function of the inputs: repeated solves —
    // serial or raced across a pool — agree bit for bit.
    const auto collect = [&](std::size_t threads) {
        std::vector<hap::core::Solution0Result> out(8);
        ExperimentRunner(threads).parallel_for(out.size(),
                                               [&](std::size_t i) { out[i] = solve(); });
        return out;
    };
    for (const auto& runs : {collect(1), collect(8)}) {
        for (const auto& r : runs) {
            EXPECT_EQ(r.mean_delay, ref.mean_delay);
            EXPECT_EQ(r.residual, ref.residual);
            EXPECT_EQ(r.sweeps, ref.sweeps);
            EXPECT_EQ(r.budget_exhausted, ref.budget_exhausted);
        }
    }
}

TEST(Budget, Solution0StateCapRefusesDeterministically) {
    hap::core::Solution0Options opts;
    opts.max_messages = 120;
    opts.max_states = 10;  // far below any usable lattice
    const hap::core::HapParams params =
        hap::core::HapParams::homogeneous(0.4, 0.2, 0.5, 0.5, 1, 2.0, 1, 10.0);
    const hap::core::Solution0Result a = hap::core::solve_solution0(params, opts);
    const hap::core::Solution0Result b = hap::core::solve_solution0(params, opts);
    EXPECT_TRUE(a.budget_exhausted);
    EXPECT_FALSE(a.converged);
    EXPECT_EQ(a.sweeps, 0u);
    EXPECT_EQ(b.budget_exhausted, a.budget_exhausted);
    EXPECT_EQ(b.sweeps, a.sweeps);
}

}  // namespace
