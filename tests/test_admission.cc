/**
 * @file
 * Tests for admission control (Algorithm 1): the paper's Figure 4
 * walkthrough, progressive-filling semantics, the Theorem 1
 * relationship with the linear-curve closed form, and the level-skip
 * bound against the unbounded fill.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/admission.h"

namespace ef {
namespace {

ScalingCurve
fig4_curve()
{
    return ScalingCurve::from_pow2_table({1.0, 1.5, 2.0});
}

PlannerConfig
unit_config(GpuCount gpus)
{
    PlannerConfig config;
    config.total_gpus = gpus;
    config.slot_seconds = 1.0;
    return config;
}

PlanningJob
make_job(JobId id, ScalingCurve curve, double remaining, Time deadline)
{
    PlanningJob job;
    job.id = id;
    job.curve = std::move(curve);
    job.remaining_iterations = remaining;
    job.deadline = deadline;
    return job;
}

TEST(Admission, PaperFigure4Example)
{
    // Jobs A and B occupy 3 GPUs in slot 0; job C (D=2, M=3) must use
    // 1 GPU in slot 0 and 4 GPUs in slot 1 (paper §4.1).
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 1.0, 1.0),  // A: 1 GPU for slot 0
        make_job(2, fig4_curve(), 1.5, 1.0),  // B: 2 GPUs for slot 0
        make_job(3, fig4_curve(), 3.0, 2.0),  // C
    };
    AdmissionOutcome outcome = run_admission(unit_config(4), 0.0, jobs);
    ASSERT_TRUE(outcome.feasible);
    const ShareLedger &ledger = outcome.ledger;
    ASSERT_EQ(ledger.plans.size(), 3u);
    EXPECT_EQ(ledger.plans[0].gpus, (std::vector<GpuCount>{1}));
    EXPECT_EQ(ledger.plans[1].gpus, (std::vector<GpuCount>{2}));
    EXPECT_EQ(ledger.plans[2].gpus, (std::vector<GpuCount>{1, 4}));
    // Slot 0 is full; slot 1 is job C's alone.
    EXPECT_EQ(ledger.available, (std::vector<GpuCount>{0, 0}));
}

TEST(Admission, LedgerRowsAreInDeadlineOrder)
{
    std::vector<PlanningJob> jobs = {
        make_job(7, fig4_curve(), 1.0, 3.0),
        make_job(5, fig4_curve(), 1.0, 1.0),
        make_job(6, fig4_curve(), 1.0, 2.0),
    };
    AdmissionOutcome outcome = run_admission(unit_config(4), 0.0, jobs);
    ASSERT_TRUE(outcome.feasible);
    ASSERT_EQ(outcome.ledger.jobs.size(), 3u);
    EXPECT_EQ(outcome.ledger.jobs[0].id, 5);
    EXPECT_EQ(outcome.ledger.jobs[1].id, 6);
    EXPECT_EQ(outcome.ledger.jobs[2].id, 7);
}

TEST(ShareLedger, FailedReserveLeavesTheLedgerAsItWas)
{
    const PlannerConfig config = unit_config(4);
    ShareLedger ledger;
    ASSERT_TRUE(ledger.reserve(make_job(1, fig4_curve(), 1.5, 1.0),
                               plan_horizon(0.0, 1.0, 1.0, 64), config));
    const std::vector<GpuCount> before = ledger.available;
    EXPECT_EQ(before, (std::vector<GpuCount>{2}));

    // Six iterations by t = 3 need more than four GPUs per slot can do.
    PlanningJob late = make_job(2, fig4_curve(), 6.0, 3.0);
    std::uint64_t cost = 0;
    EXPECT_FALSE(ledger.reserve(std::move(late),
                                plan_horizon(0.0, 3.0, 1.0, 64), config,
                                &cost));
    EXPECT_GT(cost, 0u);
    EXPECT_EQ(ledger.available, before);
    EXPECT_EQ(ledger.jobs.size(), 1u);
    EXPECT_EQ(ledger.plans.size(), 1u);
    // Not moved from: the caller can relax the job and retry.
    EXPECT_EQ(late.id, 2);
    EXPECT_FALSE(late.curve.empty());

    late.deadline = 5.0;
    ASSERT_TRUE(ledger.reserve(std::move(late),
                               plan_horizon(0.0, 5.0, 1.0, 64), config));
    ASSERT_EQ(ledger.jobs.size(), 2u);
    EXPECT_EQ(ledger.jobs[1].id, 2);
    ASSERT_EQ(ledger.available.size(), 5u);
    for (int t = 0; t < 5; ++t) {
        EXPECT_EQ(ledger.available[static_cast<std::size_t>(t)],
                  4 - ledger.plans[0].at(t) - ledger.plans[1].at(t))
            << "slot " << t;
    }
}

TEST(Admission, DropsWhenNoLevelSuffices)
{
    // Same scenario but job C must finish in slot 1 alone: max level 4
    // yields T(1) + nothing = impossible within one slot.
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 1.0, 1.0),
        make_job(2, fig4_curve(), 1.5, 1.0),
        make_job(3, fig4_curve(), 3.0, 1.0),
    };
    EXPECT_FALSE(run_admission(unit_config(4), 0.0, jobs).feasible);
}

TEST(Admission, MinimumSatisfactoryShareUsesSmallestLevel)
{
    // Deadline 4, M = 3, curve T(1)=1: one GPU suffices; the paper's
    // diminishing-returns argument says never allocate more.
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 3.0, 4.0),
    };
    AdmissionOutcome outcome = run_admission(unit_config(4), 0.0, jobs);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(outcome.ledger.plans.at(0).gpus,
              (std::vector<GpuCount>{1, 1, 1}));
}

TEST(Admission, TighterDeadlineRaisesShare)
{
    // Deadline 1.5 time units, M = 2: needs T(2)=1.5 in slot 0 plus
    // the half slot... level 2 gives 1.5 + 0.75 = 2.25 >= 2.
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 2.0, 1.5),
    };
    AdmissionOutcome outcome = run_admission(unit_config(4), 0.0, jobs);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(outcome.ledger.plans.at(0).at(0), 2);
}

TEST(Admission, ZeroRemainingJobGetsEmptyPlan)
{
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 0.0, 1.0),
    };
    AdmissionOutcome outcome = run_admission(unit_config(4), 0.0, jobs);
    ASSERT_TRUE(outcome.feasible);
    EXPECT_EQ(outcome.ledger.plans.at(0).horizon(), 0);
}

TEST(Admission, PastDeadlineInfeasible)
{
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 1.0, -5.0),
    };
    EXPECT_FALSE(run_admission(unit_config(4), 10.0, jobs).feasible);
}

TEST(Admission, BestEffortJobRejectedByContract)
{
    std::vector<PlanningJob> jobs = {
        make_job(1, fig4_curve(), 1.0, kTimeInfinity),
    };
    EXPECT_DEATH(run_admission(unit_config(4), 0.0, jobs),
                 "best-effort");
}

TEST(ProgressiveFill, LatestDirectionPacksLate)
{
    PlannerConfig config = unit_config(4);
    config.direction = FillDirection::kLatest;
    PlanningJob job = make_job(1, fig4_curve(), 2.0, 4.0);
    std::vector<GpuCount> avail(4, 4);
    auto plan = progressive_fill(job.curve, job.remaining_iterations,
                                 avail, PlanHorizon{4, 1.0}, config);
    ASSERT_TRUE(plan.has_value());
    // Two iterations at level 1 occupy the last two slots.
    EXPECT_EQ(plan->gpus, (std::vector<GpuCount>{0, 0, 1, 1}));
}

TEST(ProgressiveFill, EarliestDirectionPacksEarly)
{
    PlannerConfig config = unit_config(4);
    PlanningJob job = make_job(1, fig4_curve(), 2.0, 4.0);
    std::vector<GpuCount> avail(4, 4);
    auto plan = progressive_fill(job.curve, job.remaining_iterations,
                                 avail, PlanHorizon{4, 1.0}, config);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->gpus, (std::vector<GpuCount>{1, 1}));
}

TEST(ProgressiveFill, StartSlotLeavesPrefixUntouched)
{
    PlannerConfig config = unit_config(4);
    PlanningJob job = make_job(1, fig4_curve(), 2.0, 4.0);
    std::vector<GpuCount> avail(4, 4);
    auto plan = progressive_fill(job.curve, job.remaining_iterations,
                                 avail, PlanHorizon{4, 1.0}, config,
                                 /*start_slot=*/2);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->at(0), 0);
    EXPECT_EQ(plan->at(1), 0);
    EXPECT_EQ(plan->at(2), 1);
    EXPECT_EQ(plan->at(3), 1);
}

TEST(ProgressiveFill, FractionalLastSlotCountsPartially)
{
    PlannerConfig config = unit_config(4);
    PlanningJob job = make_job(1, fig4_curve(), 1.0, 0.0);
    std::vector<GpuCount> avail(1, 4);
    // Half a slot at level 1 yields 0.5 < 1 -> level 2 yields 0.75 <
    // 1 -> level 4 yields 1.0 >= 1.
    auto plan = progressive_fill(job.curve, job.remaining_iterations,
                                 avail, PlanHorizon{1, 0.5}, config);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->at(0), 4);
}

/**
 * A random curve over up to three leading memory-infeasible entries.
 * With @p concave the envelope makes it monotone; without, throughput
 * falls and rises again between levels.
 */
ScalingCurve
random_fill_curve(Rng &rng, bool concave, double scale)
{
    std::vector<double> table(
        static_cast<std::size_t>(rng.uniform_int(0, 3)), 0.0);
    const std::int64_t valid = rng.uniform_int(1, 6);
    for (std::int64_t k = 0; k < valid; ++k)
        table.push_back(scale * rng.uniform_real(0.2, 5.0));
    return ScalingCurve::from_pow2_table(table, concave);
}

/** @p x moved @p ulps representable doubles up (down if negative). */
double
nudge(double x, int ulps)
{
    const double to = ulps < 0 ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity();
    for (int k = 0; k < std::abs(ulps); ++k)
        x = std::nextafter(x, to);
    return x;
}

/**
 * The level-skip bound is exact: progressive_fill returns the plan (or
 * nullopt) of progressive_fill_reference and charges the same cost
 * units, across concave and non-monotone curves, both directions,
 * start slots 0 and 1, fractional final slots, crowded and empty
 * availability, and work set to a level's exact capacity (as the scan
 * sums it and as the bound computes it) give or take a few ulps.
 */
TEST(ProgressiveFill, LevelSkipMatchesReference)
{
    Rng rng(2107);
    int fills = 0, feasible = 0, infeasible = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const bool concave = rng.flip(0.5);
        const double scales[] = {1.0, 1e3, 1e6};
        const ScalingCurve curve = random_fill_curve(
            rng, concave, scales[rng.uniform_int(0, 2)]);
        PlannerConfig config;
        config.total_gpus = static_cast<GpuCount>(rng.uniform_int(1, 64));
        config.slot_seconds = rng.flip(0.5) ? 300.0 : 1.0;
        config.direction = rng.flip(0.5) ? FillDirection::kEarliest
                                         : FillDirection::kLatest;
        PlanHorizon horizon;
        horizon.slots = static_cast<int>(rng.uniform_int(1, 40));
        horizon.last_weight = rng.flip(0.5) ? 1.0 : rng.uniform_real(0.0, 1.0);
        const int start = static_cast<int>(rng.uniform_int(0, 1));
        // Empty, crowded (often below min_workers) or mixed.
        const int shape = static_cast<int>(rng.uniform_int(0, 2));
        std::vector<GpuCount> available(
            static_cast<std::size_t>(horizon.slots), config.total_gpus);
        for (GpuCount &a : available) {
            if (shape == 1)
                a = static_cast<GpuCount>(rng.uniform_int(0, 4));
            else if (shape == 2)
                a = static_cast<GpuCount>(
                    rng.uniform_int(0, config.total_gpus));
        }

        // Work to try: random amounts up to the widest level's
        // capacity, and each level's exact capacity, nudged.
        const Time dt = config.slot_seconds;
        std::vector<double> works;
        double peak = 0.0;
        for (GpuCount level = curve.min_workers();
             level != 0 && level <= curve.max_useful();
             level = level < curve.max_useful() ? level * 2 : 0) {
            double scanned = 0.0;
            for (int t = start; t < horizon.slots; ++t) {
                const GpuCount x = curve.usable(
                    std::min(level, available[static_cast<std::size_t>(t)]));
                scanned += curve.throughput(x) *
                           (t == horizon.slots - 1 ? dt * horizon.last_weight
                                                   : dt);
            }
            peak = std::max(peak, curve.throughput(level));
            const double bound =
                start < horizon.slots
                    ? peak * fill_window_seconds(horizon, dt, start)
                    : 0.0;
            for (double base : {scanned, bound}) {
                for (int ulps = -3; ulps <= 3; ++ulps) {
                    works.push_back(nudge(base, ulps));
                    works.push_back(nudge(base + kFillEpsilon, ulps));
                }
            }
            for (int k = 0; k < 4; ++k)
                works.push_back(rng.uniform_real(0.0, 1.2) * bound);
        }

        for (double work : works) {
            std::uint64_t cost = 0, reference_cost = 0;
            const std::optional<SlotPlan> got = progressive_fill(
                curve, work, available, horizon, config, start, &cost);
            const std::optional<SlotPlan> want = progressive_fill_reference(
                curve, work, available, horizon, config, start,
                &reference_cost);
            std::ostringstream where;
            where.precision(17);
            where << "trial " << trial << " work " << work;
            ASSERT_EQ(got.has_value(), want.has_value()) << where.str();
            if (got.has_value()) {
                EXPECT_EQ(got->gpus, want->gpus) << where.str();
            }
            EXPECT_EQ(cost, reference_cost) << where.str();
            ++fills;
            ++(want.has_value() ? feasible : infeasible);
        }
    }
    // Both verdicts must be well represented for the check to mean
    // anything.
    EXPECT_GT(feasible, fills / 5);
    EXPECT_GT(infeasible, fills / 5);
}

/**
 * Theorem 1 (contrapositive direction): whenever the closed-form
 * linear-curve condition fails, progressive filling must also report
 * infeasible; whenever progressive filling succeeds, the condition
 * must hold (an explicit allocation is a witness of the GPU-time
 * bound).
 */
TEST(Admission, Theorem1PropertySweep)
{
    Rng rng(2024);
    for (int trial = 0; trial < 300; ++trial) {
        GpuCount gpus = GpuCount(1) << rng.uniform_int(1, 4);
        // Linear curves: throughput k per GPU up to the cluster size.
        int levels = log2_exact(gpus) + 1;
        std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 5));
        std::vector<PlanningJob> jobs;
        for (std::size_t i = 0; i < n; ++i) {
            double k = rng.uniform_real(0.5, 2.0);
            std::vector<double> table;
            for (int level = 0; level < levels; ++level)
                table.push_back(k * static_cast<double>(1 << level));
            jobs.push_back(make_job(
                static_cast<JobId>(i),
                ScalingCurve::from_pow2_table(table),
                rng.uniform_real(0.5, 20.0),
                rng.uniform_real(1.0, 12.0)));
        }
        bool progressive =
            run_admission(unit_config(gpus), 0.0, jobs).feasible;
        bool closed_form = linear_feasibility(gpus, 0.0, jobs);
        if (progressive) {
            EXPECT_TRUE(closed_form) << "trial " << trial;
        }
        if (!closed_form) {
            EXPECT_FALSE(progressive) << "trial " << trial;
        }
    }
}

/** Invariant sweep: plans never exceed capacity and always satisfy
 *  remaining work before the deadline. */
TEST(Admission, FeasiblePlansRespectInvariants)
{
    Rng rng(555);
    for (int trial = 0; trial < 200; ++trial) {
        GpuCount gpus = 8;
        std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
        std::vector<PlanningJob> jobs;
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<double> table = {1.0};
            double prev = 1.0, inc = 0.8;
            for (int level = 1; level <= 3; ++level) {
                prev += inc * rng.uniform_real(0.3, 1.0);
                inc *= 0.7;
                table.push_back(prev);
            }
            jobs.push_back(make_job(
                static_cast<JobId>(i),
                ScalingCurve::from_pow2_table(table),
                rng.uniform_real(0.5, 15.0),
                rng.uniform_real(1.0, 10.0)));
        }
        PlannerConfig config = unit_config(gpus);
        AdmissionOutcome outcome = run_admission(config, 0.0, jobs);
        if (!outcome.feasible)
            continue;
        const ShareLedger &ledger = outcome.ledger;
        ASSERT_EQ(ledger.jobs.size(), n);
        ASSERT_EQ(ledger.plans.size(), n);
        int horizon = 0;
        for (const SlotPlan &plan : ledger.plans)
            horizon = std::max(horizon, plan.horizon());
        ASSERT_GE(static_cast<int>(ledger.available.size()), horizon);
        for (int t = 0; t < static_cast<int>(ledger.available.size());
             ++t) {
            GpuCount used = 0;
            for (const SlotPlan &plan : ledger.plans)
                used += plan.at(t);
            EXPECT_LE(used, gpus) << "trial " << trial << " slot " << t;
            EXPECT_EQ(ledger.available[static_cast<std::size_t>(t)],
                      gpus - used)
                << "trial " << trial << " slot " << t;
        }
        for (std::size_t i = 0; i < n; ++i) {
            const PlanningJob &job = ledger.jobs[i];
            const SlotPlan &plan = ledger.plans[i];
            EXPECT_GE(plan_iterations(job.curve, plan, 1.0),
                      job.remaining_iterations - 1e-6)
                << "trial " << trial << " job " << job.id;
            EXPECT_LE(plan_finish_seconds(job.curve, plan,
                                          job.remaining_iterations, 1.0),
                      job.deadline + 1e-6)
                << "trial " << trial << " job " << job.id;
        }
    }
}

}  // namespace
}  // namespace ef
