/**
 * @file
 * Tests for the greedy resource allocator (Algorithm 2): the Fig. 3
 * motivating example, marginal-return ordering, constraint (7), and
 * best-effort handling (§4.4).
 */
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/allocator.h"

namespace ef {
namespace {

PlannerConfig
unit_config(GpuCount gpus)
{
    PlannerConfig config;
    config.total_gpus = gpus;
    config.slot_seconds = 1.0;
    return config;
}

PlanningJob
make_job(JobId id, std::vector<double> table, double remaining,
         Time deadline)
{
    PlanningJob job;
    job.id = id;
    job.curve = ScalingCurve::from_pow2_table(std::move(table));
    job.remaining_iterations = remaining;
    job.deadline = deadline;
    return job;
}

/**
 * Admission + allocation in one call (what the scheduler does). The
 * outcome is indexed by ledger row, which is deadline order; every
 * caller below lists its SLO jobs in that order already.
 */
AllocationOutcome
plan(const PlannerConfig &config, std::vector<PlanningJob> slo,
     std::vector<PlanningJob> best_effort = {})
{
    AdmissionOutcome admission = run_admission(config, 0.0, slo);
    EXPECT_TRUE(admission.feasible);
    for (std::size_t i = 0; i < slo.size(); ++i)
        EXPECT_EQ(admission.ledger.jobs.at(i).id, slo[i].id);
    return run_allocation(config, 0.0, admission.ledger, best_effort);
}

TEST(Allocator, Figure3BothJobsMeetDeadlines)
{
    // Paper Fig. 3: curve T(1)=1, T(2)=1.5; jobs A (D=3) and B
    // (D=3.5), both M=3, two workers. EDF serialized them and missed
    // B; the optimal allocation runs both on one worker.
    std::vector<PlanningJob> jobs = {
        make_job(1, {1.0, 1.5}, 3.0, 3.0),
        make_job(2, {1.0, 1.5}, 3.0, 3.5),
    };
    AllocationOutcome outcome = plan(unit_config(2), jobs);
    EXPECT_EQ(outcome.slo_gpus, (std::vector<GpuCount>{1, 1}));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_LE(plan_finish_seconds(jobs[i].curve, outcome.plans[i],
                                      jobs[i].remaining_iterations, 1.0),
                  jobs[i].deadline + 1e-9);
    }
}

TEST(Allocator, ExtraGpuGoesToHighestMarginalReturn)
{
    // Job 1 scales almost linearly (its bump finishes the job within
    // the slot, wasting no GPU time); job 2 barely scales (its bump
    // spills into another slot, costing one extra GPU-second). The
    // spare GPU must speed up job 1.
    std::vector<PlanningJob> jobs = {
        make_job(1, {1.0, 1.9}, 1.8, 10.0),
        make_job(2, {1.0, 1.1}, 1.8, 10.0),
    };
    AllocationOutcome outcome = plan(unit_config(3), jobs);
    EXPECT_EQ(outcome.slo_gpus, (std::vector<GpuCount>{2, 1}));
}

TEST(Allocator, Constraint7NoUsefulGpuLeftIdle)
{
    // One job, plenty of GPUs: it should be boosted to max_useful.
    std::vector<PlanningJob> jobs = {
        make_job(1, {1.0, 1.5, 2.0}, 10.0, 100.0),
    };
    AllocationOutcome outcome = plan(unit_config(8), jobs);
    EXPECT_EQ(outcome.slo_gpus[0], 4);  // max_useful
    EXPECT_EQ(outcome.unallocated, 4);     // the rest cannot help
}

TEST(Allocator, BoostNeverBreaksOtherDeadlines)
{
    // Tight cluster: boosting one job must not consume a reservation
    // another deadline needs.
    std::vector<PlanningJob> jobs = {
        make_job(1, {1.0, 1.8}, 2.0, 2.0),
        make_job(2, {1.0, 1.8}, 4.0, 4.4),
    };
    AllocationOutcome outcome = plan(unit_config(2), jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_LE(plan_finish_seconds(jobs[i].curve, outcome.plans[i],
                                      jobs[i].remaining_iterations, 1.0),
                  jobs[i].deadline + 1e-9)
            << "job " << jobs[i].id;
    }
    GpuCount used = outcome.slo_gpus[0] + outcome.slo_gpus[1];
    EXPECT_LE(used, 2);
}

TEST(Allocator, BestEffortStartsOnIdleGpus)
{
    std::vector<PlanningJob> slo = {
        make_job(1, {1.0, 1.5}, 2.0, 10.0),
    };
    std::vector<PlanningJob> be = {
        make_job(50, {1.0, 1.5, 2.0}, 100.0, kTimeInfinity),
    };
    AllocationOutcome outcome = plan(unit_config(8), slo, be);
    // Both jobs are grown to their max_useful counts (2 and 4); the
    // best-effort job is started before any SLO speed-up.
    EXPECT_EQ(outcome.slo_gpus[0], 2);
    EXPECT_EQ(outcome.best_effort_gpus[0], 4);
    EXPECT_EQ(outcome.unallocated, 2);
}

TEST(Allocator, BestEffortYieldsToSloMinimumShares)
{
    // The SLO job needs the whole cluster to make its deadline; the
    // best-effort job must stay suspended.
    std::vector<PlanningJob> slo = {
        make_job(1, {1.0, 1.5, 2.0}, 2.0, 1.0),
    };
    std::vector<PlanningJob> be = {
        make_job(50, {1.0, 1.5, 2.0}, 100.0, kTimeInfinity),
    };
    AllocationOutcome outcome = plan(unit_config(4), slo, be);
    EXPECT_EQ(outcome.slo_gpus[0], 4);
    EXPECT_EQ(outcome.best_effort_gpus[0], 0);
}

TEST(Allocator, BestEffortMemoryBoundRespected)
{
    // A best-effort job whose min_workers is 4 cannot start on 2
    // leftover GPUs.
    std::vector<PlanningJob> slo = {
        make_job(1, {1.0, 1.5}, 4.5, 3.2),
    };
    std::vector<PlanningJob> be = {
        make_job(50, {0.0, 0.0, 2.0}, 100.0, kTimeInfinity),
    };
    AllocationOutcome outcome = plan(unit_config(4), slo, be);
    EXPECT_EQ(outcome.best_effort_gpus[0], 0);
    EXPECT_GE(outcome.unallocated, 1);
}

TEST(Allocator, SuspendedSloJobWhenMinShareStartsLater)
{
    // With the latest-fill direction a loose job is packed at the end
    // of its window; Algorithm 2 then pulls it forward only if that
    // saves GPU time — the slot-0 count may legitimately stay 0 when
    // boosting cannot beat the reserved plan. Here the idle cluster
    // means boosting strictly improves finish time, so it runs now.
    PlannerConfig config = unit_config(4);
    config.direction = FillDirection::kLatest;
    std::vector<PlanningJob> jobs = {
        make_job(1, {1.0, 1.5}, 2.0, 10.0),
    };
    AllocationOutcome outcome = plan(config, jobs);
    EXPECT_GT(outcome.slo_gpus[0], 0);
}

/** Property sweep: allocation respects capacity in every slot, meets
 *  every deadline, and never allocates past max_useful. */
TEST(Allocator, InvariantPropertySweep)
{
    Rng rng(303);
    for (int trial = 0; trial < 200; ++trial) {
        GpuCount gpus = GpuCount(1) << rng.uniform_int(2, 4);
        PlannerConfig config = unit_config(gpus);
        std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 5));
        std::vector<PlanningJob> slo;
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> table = {1.0};
            double prev = 1.0, inc = rng.uniform_real(0.3, 0.9);
            for (int level = 1; level <= 3; ++level) {
                prev += inc;
                inc *= rng.uniform_real(0.4, 0.9);
                table.push_back(prev);
            }
            slo.push_back(make_job(static_cast<JobId>(i), table,
                                   rng.uniform_real(0.5, 8.0),
                                   rng.uniform_real(2.0, 12.0)));
        }
        AdmissionOutcome admission = run_admission(config, 0.0, slo);
        if (!admission.feasible)
            continue;
        slo = admission.ledger.jobs;  // the outcome's row order
        AllocationOutcome outcome =
            run_allocation(config, 0.0, admission.ledger, {});

        int horizon = 0;
        for (const SlotPlan &p : outcome.plans)
            horizon = std::max(horizon, p.horizon());
        for (int t = 0; t < horizon; ++t) {
            GpuCount used = 0;
            for (const SlotPlan &p : outcome.plans)
                used += p.at(t);
            EXPECT_LE(used, gpus) << "trial " << trial << " slot " << t;
        }
        for (std::size_t i = 0; i < slo.size(); ++i) {
            const PlanningJob &job = slo[i];
            EXPECT_LE(plan_finish_seconds(job.curve, outcome.plans[i],
                                          job.remaining_iterations, 1.0),
                      job.deadline + 1e-6)
                << "trial " << trial << " job " << job.id;
            EXPECT_LE(outcome.slo_gpus[i], job.curve.max_useful())
                << "trial " << trial << " job " << job.id;
        }
        // Allocation monotonicity of Algorithm 2: totals at slot 0
        // equal the cluster unless no job benefits from more.
        GpuCount now_total = 0;
        for (GpuCount g : outcome.slo_gpus)
            now_total += g;
        EXPECT_EQ(now_total + outcome.unallocated, gpus)
            << "trial " << trial;
    }
}

/** A ledger with fewer plans than SLO rows (a row without a minimum
 *  satisfactory share) is refused. */
TEST(Allocator, LedgerWithoutAPlanPerRowDies)
{
    ShareLedger ledger;
    ledger.jobs = {make_job(1, {1.0}, 1.0, 5.0)};
    EXPECT_DEATH(run_allocation(unit_config(2), 0.0, ledger, {}),
                 "1 rows");
}

/** The reference recomputes availability from the plans and refuses a
 *  ledger whose own availability disagrees (a share not subtracted). */
TEST(Allocator, ReferenceRefusesLedgerAvailabilityOffItsPlans)
{
    const PlannerConfig config = unit_config(2);
    AdmissionOutcome admission =
        run_admission(config, 0.0, {make_job(1, {1.0}, 3.0, 5.0)});
    ASSERT_TRUE(admission.feasible);
    ShareLedger ledger = admission.ledger;
    EXPECT_EQ(run_allocation_reference(config, 0.0, ledger, {}).slo_gpus,
              run_allocation(config, 0.0, ledger, {}).slo_gpus);
    ledger.available.assign(ledger.available.size(), config.total_gpus);
    EXPECT_DEATH(run_allocation_reference(config, 0.0, ledger, {}),
                 "disagrees with its plans");
}

}  // namespace
}  // namespace ef
