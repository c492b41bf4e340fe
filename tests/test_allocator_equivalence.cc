/**
 * @file
 * Equivalence fuzz: the incremental (lazy-heap) run_allocation must
 * produce byte-identical outcomes to run_allocation_reference, the
 * direct transcription of Algorithm 2, on randomized instances.
 *
 * Instances are generated from fixed seeds so failures reproduce.
 * Coverage spans best-effort-only, SLO-only, and mixed queues, both
 * fill directions for the minimum-share plans, and cluster sizes from
 * starved to abundant (up to 2048 GPUs, where the incremental
 * allocator's skip certificates fire). Curves that start above one
 * GPU and best-effort rows with no work left exercise the allocator's
 * best-effort start scan, and service-shaped rounds its early return.
 * The share ledger comes from run_admission over the same state, its
 * rows shuffled as a service round's may be.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "core/allocator.h"

namespace ef {
namespace {

/** A concave curve whose first @p max_leading_zeros or fewer table
 *  entries are zero, so min_workers() is 1, 2, ... up to
 *  2^max_leading_zeros. */
ScalingCurve
random_curve(std::mt19937 &rng, int max_leading_zeros)
{
    std::uniform_int_distribution<int> entries(1, 8);
    std::uniform_real_distribution<double> base(0.5, 4.0);
    std::uniform_real_distribution<double> gain(1.0, 2.0);
    std::vector<double> table;
    if (max_leading_zeros > 0) {
        std::uniform_int_distribution<int> zeros(0, max_leading_zeros);
        table.assign(static_cast<std::size_t>(zeros(rng)), 0.0);
    }
    int count = entries(rng);
    double tpt = base(rng);
    for (int k = 0; k < count; ++k) {
        table.push_back(tpt);
        tpt *= gain(rng);
    }
    return ScalingCurve::from_pow2_table(std::move(table));
}

/** Ranges one random job is drawn from. */
struct JobDraw
{
    double min_iterations = 10.0;
    double max_iterations = 5000.0;
    /** Deadline / single-GPU runtime, between "tight" and "slack". */
    double min_slack = 0.3;
    double max_slack = 4.0;
    /** Curves start at up to 2^max_leading_zeros GPUs. */
    int max_leading_zeros = 0;
    /** Share of best-effort jobs drawn with no work left (0 or
     *  exactly the allocator's epsilon, which counts as none). */
    double idle_best_effort = 0.0;
};

PlanningJob
random_job(std::mt19937 &rng, JobId id, Time now, bool best_effort,
           const JobDraw &draw)
{
    PlanningJob job;
    job.id = id;
    job.curve = random_curve(rng, draw.max_leading_zeros);
    std::uniform_real_distribution<double> iters(draw.min_iterations,
                                                 draw.max_iterations);
    job.remaining_iterations = iters(rng);
    if (best_effort && draw.idle_best_effort > 0.0) {
        std::uniform_real_distribution<double> share(0.0, 1.0);
        const double u = share(rng);
        if (u < draw.idle_best_effort)
            job.remaining_iterations = u < draw.idle_best_effort / 2
                                           ? 0.0
                                           : kFillEpsilon;
    }
    if (!best_effort) {
        // Admission filters the infeasible deadlines.
        double solo = job.remaining_iterations /
                      job.curve.throughput(job.curve.min_workers());
        std::uniform_real_distribution<double> factor(draw.min_slack,
                                                      draw.max_slack);
        job.deadline = now + solo * factor(rng);
    }
    return job;
}

struct Shape
{
    int slo_jobs = 0;
    int best_effort_jobs = 0;
    GpuCount total_gpus = 0;
    FillDirection direction = FillDirection::kEarliest;
};

/** How a test draws its jobs. */
struct Draws
{
    JobDraw jobs;
    /**
     * When set, odd-numbered SLO jobs are drawn from this instead:
     * mixing short tight jobs with long slack ones crowds the early
     * tail slots (latest packing parks the short jobs' reservations
     * just before their deadlines) where the long jobs' re-fills
     * start, so both skip certificates fail and a wrongly taken fast
     * path would change the outcome.
     */
    std::optional<JobDraw> odd_slo;
};

/** One generated allocation input. */
struct Instance
{
    PlannerConfig config;
    Time now = 0.0;
    ShareLedger ledger;
    std::vector<PlanningJob> best_effort_jobs;
};

/**
 * Generate one instance from @p seed, or nullopt when admission
 * rejected its SLO set.
 */
std::optional<Instance>
make_instance(std::uint32_t seed, const Shape &shape, const Draws &draws)
{
    std::mt19937 rng(seed);
    const Time now = 137.5;  // deliberately not slot-aligned

    PlannerConfig config;
    config.total_gpus = shape.total_gpus;
    config.slot_seconds = 60.0;
    config.direction = shape.direction;

    std::vector<PlanningJob> slo_jobs;
    std::vector<PlanningJob> best_effort_jobs;
    JobId next_id = 1;
    for (int i = 0; i < shape.slo_jobs; ++i) {
        const JobDraw &draw = i % 2 == 1 && draws.odd_slo.has_value()
                                  ? *draws.odd_slo
                                  : draws.jobs;
        slo_jobs.push_back(random_job(rng, next_id++, now, false, draw));
    }
    for (int j = 0; j < shape.best_effort_jobs; ++j) {
        best_effort_jobs.push_back(
            random_job(rng, next_id++, now, true, draws.jobs));
    }

    ShareLedger ledger;
    if (!slo_jobs.empty()) {
        AdmissionOutcome admitted =
            run_admission(config, now, slo_jobs);
        if (!admitted.feasible)
            return std::nullopt;
        ledger = std::move(admitted.ledger);
    }
    // Production ledgers are not in deadline order (the service
    // appends its admissions after the refresh's rows): shuffle the
    // rows, plans in lockstep, so ties break on arbitrary indices.
    std::vector<std::size_t> order(ledger.jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    ShareLedger shuffled;
    shuffled.available = ledger.available;
    for (std::size_t k : order) {
        shuffled.jobs.push_back(ledger.jobs[k]);
        shuffled.plans.push_back(ledger.plans[k]);
    }
    return Instance{config, now, std::move(shuffled),
                    std::move(best_effort_jobs)};
}

/**
 * Generate one instance from @p seed, run both implementations, and
 * compare. Returns false when admission rejected the SLO set (the
 * instance is skipped, not counted). @p out, when non-null, receives
 * the instance and the reference's outcome.
 */
bool
check_one(std::uint32_t seed, const Shape &shape, const Draws &draws,
          std::pair<Instance, AllocationOutcome> *out = nullptr)
{
    std::optional<Instance> made = make_instance(seed, shape, draws);
    if (!made.has_value())
        return false;
    const Instance &in = *made;
    const ShareLedger &shuffled = in.ledger;

    AllocationOutcome fast = run_allocation(in.config, in.now, shuffled,
                                            in.best_effort_jobs);
    AllocationOutcome slow = run_allocation_reference(
        in.config, in.now, shuffled, in.best_effort_jobs);

    std::ostringstream label;
    label << "seed=" << seed << " slo=" << shape.slo_jobs
          << " be=" << shape.best_effort_jobs
          << " gpus=" << shape.total_gpus << " dir="
          << (shape.direction == FillDirection::kEarliest ? "earliest"
                                                          : "latest");
    EXPECT_EQ(fast.slo_gpus, slow.slo_gpus) << label.str();
    EXPECT_EQ(fast.best_effort_gpus, slow.best_effort_gpus) << label.str();
    EXPECT_EQ(fast.unallocated, slow.unallocated) << label.str();
    EXPECT_EQ(fast.plans.size(), slow.plans.size()) << label.str();
    for (std::size_t i = 0; i < slow.plans.size() && i < fast.plans.size();
         ++i) {
        EXPECT_EQ(fast.plans[i].gpus, slow.plans[i].gpus)
            << label.str() << " job " << shuffled.jobs[i].id;
    }
    if (out != nullptr)
        *out = {std::move(*made), std::move(slow)};
    return true;
}

int
run_shapes(const std::vector<Shape> &shapes, std::uint32_t seed_base,
           int seeds_per_shape, const Draws &draws = {})
{
    int compared = 0;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        for (int k = 0; k < seeds_per_shape; ++k) {
            std::uint32_t seed =
                seed_base + static_cast<std::uint32_t>(s) * 1000 +
                static_cast<std::uint32_t>(k);
            if (check_one(seed, shapes[s], draws))
                ++compared;
        }
    }
    return compared;
}

TEST(AllocatorEquivalence, BestEffortOnly)
{
    std::vector<Shape> shapes = {
        {0, 1, 4, FillDirection::kEarliest},
        {0, 5, 16, FillDirection::kEarliest},
        {0, 20, 32, FillDirection::kEarliest},
        {0, 40, 8, FillDirection::kEarliest},  // starved
    };
    // No admission step, so every seed yields a comparison.
    EXPECT_EQ(run_shapes(shapes, 10'000, 20), 80);
}

TEST(AllocatorEquivalence, SloOnly)
{
    std::vector<Shape> shapes = {
        {1, 0, 8, FillDirection::kEarliest},
        {6, 0, 32, FillDirection::kEarliest},
        {6, 0, 32, FillDirection::kLatest},
        {15, 0, 64, FillDirection::kLatest},
        {10, 0, 16, FillDirection::kEarliest},  // contended
    };
    int compared = run_shapes(shapes, 20'000, 25);
    EXPECT_GE(compared, 60) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, MixedQueues)
{
    std::vector<Shape> shapes = {
        {3, 3, 16, FillDirection::kEarliest},
        {8, 8, 64, FillDirection::kLatest},
        {12, 4, 32, FillDirection::kEarliest},
        {4, 12, 24, FillDirection::kLatest},
        {10, 10, 128, FillDirection::kEarliest},  // abundant
        // Deep greedy runs: enough headroom for long upgrade chains,
        // exercising every skip certificate in the incremental path.
        {60, 20, 512, FillDirection::kLatest},
    };
    int compared = run_shapes(shapes, 30'000, 25);
    EXPECT_GE(compared, 60) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, AbundantClusters)
{
    // Underloaded clusters, where run_allocation's two skip
    // certificates fire: tail windows keep >= max_useful GPUs free
    // (unclipped re-fill fast path), and winners' plan edits leave
    // >= the largest max_useful free in every changed slot (the
    // per-winner affected scan is skipped outright). At 256 GPUs they
    // hold for nearly every candidate and winner. Every deadline
    // leaves at least its single-GPU runtime, so admission keeps sets
    // this large.
    std::vector<Shape> shapes = {
        {40, 0, 256, FillDirection::kEarliest},
        {40, 10, 256, FillDirection::kLatest},
        {48, 0, 2048, FillDirection::kEarliest},
        {48, 16, 2048, FillDirection::kLatest},
    };
    const Draws slack{{10.0, 5000.0, 1.0, 4.0}, std::nullopt};
    int compared = run_shapes(shapes, 40'000, 25, slack);
    EXPECT_GE(compared, 80) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, CrowdedTails)
{
    // The boundary of both skip certificates: short tight jobs crowd
    // the early tail slots, so availability there drops below the long
    // jobs' max_useful. Forcing either certificate (taking the
    // unclipped re-fill without its availability scan, or skipping the
    // affected scan regardless of changed_min) diverges from the
    // reference on these shapes.
    std::vector<Shape> shapes = {
        {10, 0, 16, FillDirection::kLatest},
        {12, 0, 24, FillDirection::kLatest},
        {16, 4, 32, FillDirection::kLatest},
    };
    const Draws tight_and_slack{{200.0, 2000.0, 0.5, 1.0},
                                JobDraw{3000.0, 5000.0, 2.0, 4.0}};
    int compared = run_shapes(shapes, 50'000, 100, tight_and_slack);
    EXPECT_GE(compared, 40) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
}

/** True when the reference gave slot 0 to best-effort starts alone:
 *  nothing left idle, no SLO row grew, no best-effort row past its
 *  start. */
bool
starts_used_up_slot0(const Instance &in, const AllocationOutcome &out)
{
    if (out.unallocated != 0)
        return false;
    for (std::size_t i = 0; i < out.slo_gpus.size(); ++i) {
        if (out.slo_gpus[i] != in.ledger.plans[i].at(0))
            return false;
    }
    for (std::size_t j = 0; j < out.best_effort_gpus.size(); ++j) {
        const GpuCount g = out.best_effort_gpus[j];
        if (g != 0 && g != in.best_effort_jobs[j].curve.next_step(0))
            return false;
    }
    return true;
}

TEST(AllocatorEquivalence, WideStartsAndIdleRows)
{
    // Curves start at 1 to 8 GPUs and a fifth of the best-effort rows
    // have no work, so the start scan skips rows: idle ones, and wide
    // starts that no longer fit while a later narrow one still does.
    // Ending the scan at the first start that does not fit, or
    // starting an idle row, diverges from the reference here.
    std::vector<Shape> shapes = {
        {0, 12, 16, FillDirection::kEarliest},
        {0, 30, 24, FillDirection::kEarliest},
        {4, 12, 32, FillDirection::kLatest},
        {8, 24, 48, FillDirection::kEarliest},
        {6, 6, 64, FillDirection::kLatest},  // starts leave GPUs over
    };
    const Draws wide{{10.0, 5000.0, 1.0, 4.0, 3, 0.2}, std::nullopt};
    int compared = run_shapes(shapes, 60'000, 40, wide);
    EXPECT_GE(compared, 120) << "admission rejected too many instances "
                             << "for the fuzz to be meaningful";
}

TEST(AllocatorEquivalence, ServiceRounds)
{
    // A service round's shape: about 16 SLO rows and 250 best-effort
    // rows on 64 GPUs. In most instances the best-effort starts use up
    // slot 0, so run_allocation returns right after its start scan;
    // the 128-GPU shape leaves GPUs to the growth heap after the scan.
    std::vector<Shape> shapes = {
        {16, 250, 64, FillDirection::kEarliest},
        {16, 250, 64, FillDirection::kLatest},
        {12, 240, 64, FillDirection::kEarliest},
        {8, 4, 128, FillDirection::kEarliest},
    };
    const Draws service{{10.0, 5000.0, 1.0, 4.0, 3, 0.1}, std::nullopt};
    int compared = 0;
    int starts_only = 0;
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        for (std::uint32_t k = 0; k < 20; ++k) {
            std::pair<Instance, AllocationOutcome> got;
            const std::uint32_t seed =
                70'000 + static_cast<std::uint32_t>(s) * 1000 + k;
            if (!check_one(seed, shapes[s], service, &got))
                continue;
            ++compared;
            if (starts_used_up_slot0(got.first, got.second))
                ++starts_only;
        }
    }
    EXPECT_GE(compared, 60) << "admission rejected too many instances "
                            << "for the fuzz to be meaningful";
    // Both phases are covered: the early return and the heap.
    EXPECT_GE(starts_only, compared / 2);
    EXPECT_LT(starts_only, compared);
}

/** A best-effort job with @p iterations left on the curve @p table. */
PlanningJob
best_effort_job(JobId id, std::vector<double> table, double iterations)
{
    PlanningJob job;
    job.id = id;
    job.curve = ScalingCurve::from_pow2_table(std::move(table));
    job.remaining_iterations = iterations;
    return job;
}

TEST(AllocatorEquivalence, SkippedWideStart)
{
    // Row 0 starts at 4 GPUs, leaving 1 (of 5) or 4 (of 8) in slot 0.
    // Row 1's start of 8 no longer fits, but row 2's start of 1 after
    // it still does. On 5 GPUs that uses slot 0 up; on 8 the growth
    // phase then takes row 2 to 4 (row 0's doubling does not fit).
    const std::vector<PlanningJob> jobs = {
        best_effort_job(1, {0.0, 0.0, 4.0, 6.0}, 1000.0),
        best_effort_job(2, {0.0, 0.0, 0.0, 2.0, 3.0}, 1000.0),
        best_effort_job(3, {1.0, 1.8, 3.0}, 1000.0),
    };
    PlannerConfig config;
    config.slot_seconds = 60.0;
    const ShareLedger none;
    for (const auto &[gpus, want] :
         {std::pair<GpuCount, std::vector<GpuCount>>{5, {4, 0, 1}},
          std::pair<GpuCount, std::vector<GpuCount>>{8, {4, 0, 4}}}) {
        config.total_gpus = gpus;
        AllocationOutcome fast = run_allocation(config, 0.0, none, jobs);
        AllocationOutcome slow =
            run_allocation_reference(config, 0.0, none, jobs);
        EXPECT_EQ(slow.best_effort_gpus, want) << gpus << " GPUs";
        EXPECT_EQ(fast.best_effort_gpus, want) << gpus << " GPUs";
        EXPECT_EQ(fast.unallocated, slow.unallocated) << gpus << " GPUs";
        EXPECT_EQ(fast.unallocated, 0) << gpus << " GPUs";
    }
}

}  // namespace
}  // namespace ef
