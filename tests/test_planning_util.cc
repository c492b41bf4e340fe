/**
 * @file
 * Tests for the shared planning helpers: margins, fixed-size planning
 * jobs (Chronus semantics), and the EDF-greedy admission predicate.
 */
#include <gtest/gtest.h>

#include "sched/planning_util.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

/** Minimal ClusterView over a fixed job list (no simulator). */
class FakeView : public ClusterView
{
  public:
    FakeView(TopologySpec spec, std::vector<JobSpec> jobs)
        : topology_(spec), perf_(&topology_), jobs_(std::move(jobs))
    {
        for (const JobSpec &job : jobs_) {
            curves_.emplace(job.id, curve_for(job));
            remaining_.emplace(job.id,
                               static_cast<double>(job.iterations));
        }
    }

    GpuCount total_gpus() const override
    {
        return topology_.total_gpus();
    }
    Time now() const override { return now_; }
    std::vector<JobId>
    active_jobs() const override
    {
        std::vector<JobId> ids;
        for (const JobSpec &job : jobs_)
            ids.push_back(job.id);
        return ids;
    }
    const JobSpec &
    spec(JobId job) const override
    {
        for (const JobSpec &s : jobs_) {
            if (s.id == job)
                return s;
        }
        EF_CHECK(false);
        return jobs_.front();
    }
    const ScalingCurve &
    curve(JobId job) const override
    {
        return curves_.at(job);
    }
    ScalingCurve
    curve_for(const JobSpec &spec) const override
    {
        return ScalingCurve::from_pow2_table(
            perf_.compact_pow2_throughputs(spec.model,
                                           spec.global_batch,
                                           topology_.total_gpus()));
    }
    double
    remaining_iterations(JobId job) const override
    {
        return remaining_.at(job);
    }
    GpuCount current_gpus(JobId) const override { return 0; }
    double attained_gpu_seconds(JobId) const override { return 0.0; }

    void set_remaining(JobId job, double r) { remaining_[job] = r; }
    void set_now(Time t) { now_ = t; }

  private:
    Topology topology_;
    PerfModel perf_;
    std::vector<JobSpec> jobs_;
    std::map<JobId, ScalingCurve> curves_;
    std::map<JobId, double> remaining_;
    Time now_ = 0.0;
};

JobSpec
spec_of(JobId id, DnnModel model, int batch, GpuCount requested,
        std::int64_t iterations, Time deadline)
{
    JobSpec job;
    job.id = id;
    job.model = model;
    job.global_batch = batch;
    job.requested_gpus = requested;
    job.iterations = iterations;
    job.deadline = deadline;
    return job;
}

TEST(PlanningMargin, InflateCombinesRelativeAndAbsolute)
{
    ScalingCurve curve = ScalingCurve::from_pow2_table({2.0, 3.0});
    PlanningMargin margin{0.10, 50.0};
    // 10% of 1000 plus 50 s at the max-useful rate (3 iters/s).
    EXPECT_DOUBLE_EQ(margin.inflate(1000.0, curve),
                     1100.0 + 150.0);
    PlanningMargin none{};
    EXPECT_DOUBLE_EQ(none.inflate(1000.0, curve), 1000.0);
}

TEST(PlanningUtil, ToPlanningJobReflectsViewState)
{
    FakeView view(TopologySpec::testbed_32(),
                  {spec_of(7, DnnModel::kResNet50, 128, 4, 10000,
                           2.0 * kHour)});
    view.set_remaining(7, 4000.0);
    PlanningJob job = to_planning_job(view, 7, PlanningMargin{});
    EXPECT_EQ(job.id, 7);
    EXPECT_DOUBLE_EQ(job.remaining_iterations, 4000.0);
    EXPECT_DOUBLE_EQ(job.deadline, 2.0 * kHour);
    EXPECT_FALSE(job.soft);
}

TEST(PlanningUtil, FixedPlanningJobPinsRequestedSize)
{
    FakeView view(TopologySpec::testbed_32(),
                  {spec_of(1, DnnModel::kResNet50, 128, 4, 10000,
                           2.0 * kHour)});
    PlanningJob job = to_fixed_planning_job(view, 1, PlanningMargin{});
    EXPECT_EQ(job.curve.min_workers(), 4);
    EXPECT_EQ(job.curve.max_useful(), 4);
}

TEST(EdfAdmission, AcceptsWhatGreedyEdfCanFinish)
{
    FakeView view(TopologySpec::testbed_32(), {});
    PlannerConfig config =
        planner_config_for(view, 300.0, FillDirection::kEarliest);
    // A lone job with a loose deadline is trivially EDF-feasible.
    JobSpec ok = spec_of(1, DnnModel::kResNet50, 128, 4, 20000,
                         4.0 * kHour);
    EXPECT_TRUE(edf_admission_feasible(view, config, ok));
    // A deadline in the past is not.
    JobSpec late = ok;
    late.deadline = -10.0;
    EXPECT_FALSE(edf_admission_feasible(view, config, late));
}

TEST(EdfAdmission, AccountsForEarlierDeadlineHogs)
{
    // One running job with an earlier deadline consumes the whole
    // cluster under EDF greed; the candidate starves and is rejected,
    // even though an elastic planner could interleave both.
    Topology topo(TopologySpec::testbed_32());
    PerfModel perf(&topo);
    double t32 =
        perf.compact_throughput(DnnModel::kVgg16, 256, 32);
    auto hog_iters =
        static_cast<std::int64_t>(t32 * 2.0 * kHour * 0.95);
    FakeView view(TopologySpec::testbed_32(),
                  {spec_of(1, DnnModel::kVgg16, 256, 8, hog_iters,
                           2.0 * kHour)});
    PlannerConfig config =
        planner_config_for(view, 300.0, FillDirection::kEarliest);
    // Candidate has a later deadline but needs most of the first two
    // hours too.
    double t8 = perf.compact_throughput(DnnModel::kVgg16, 256, 8);
    JobSpec candidate =
        spec_of(2, DnnModel::kVgg16, 256, 8,
                static_cast<std::int64_t>(t8 * 2.0 * kHour),
                2.2 * kHour);
    EXPECT_FALSE(edf_admission_feasible(view, config, candidate));
    // With a much later deadline it fits after the hog.
    candidate.deadline = 8.0 * kHour;
    EXPECT_TRUE(edf_admission_feasible(view, config, candidate));
}

TEST(ElasticAllocate, SuspendedWhenNothingFits)
{
    // More SLO demand than the cluster: elastic_allocate must still
    // return a capacity-respecting decision.
    FakeView view(
        TopologySpec::testbed_32(),
        {spec_of(1, DnnModel::kVgg16, 256, 32, 2000000, kHour),
         spec_of(2, DnnModel::kVgg16, 256, 32, 2000000, kHour)});
    PlannerConfig config =
        planner_config_for(view, 300.0, FillDirection::kEarliest);
    int failures = 0;
    SchedulerDecision decision = elastic_allocate(
        view, config, PlanningMargin{}, false, &failures);
    GpuCount total = 0;
    for (const auto &[id, g] : decision.entries())
        total += g;
    EXPECT_LE(total, 32);
    EXPECT_GT(failures, 0);  // both deadlines are hopeless
}

TEST(RefreshMinShares, RelaxedReservationStaysInsideRelaxedHorizon)
{
    // Regression: the relaxation loop grows `available` as the
    // deadline extends, and the resulting reservation must never
    // reach past the horizon of the *relaxed* deadline — an earlier
    // fill attempt's bookkeeping must not leak into the retry.
    PlannerConfig config;
    config.total_gpus = 8;
    config.slot_seconds = 300.0;
    const Time now = 50.0;

    ScalingCurve curve = ScalingCurve::from_pow2_table({1.0, 1.8, 3.0});
    std::vector<PlanningJob> slo;
    // An infeasible job: needs far more GPU time than its deadline
    // allows even at full tilt, so relaxation must extend it.
    PlanningJob hopeless;
    hopeless.id = 1;
    hopeless.curve = curve;
    hopeless.deadline = now + 600.0;  // two slots
    hopeless.remaining_iterations = 3.0 * 20 * 300.0;  // ~20 full slots
    slo.push_back(hopeless);
    // A feasible companion filling in around it.
    PlanningJob easy;
    easy.id = 2;
    easy.curve = curve;
    easy.deadline = now + 4 * 300.0;
    easy.remaining_iterations = 1.0 * 300.0;
    slo.push_back(easy);

    int failures = 0;
    MinShareRefresh refresh =
        refresh_min_shares(config, now, slo, &failures);
    EXPECT_EQ(failures, 1);
    const ShareLedger &ledger = refresh.ledger;
    ASSERT_EQ(ledger.jobs.size(), 2u);
    ASSERT_EQ(ledger.plans.size(), 2u);
    EXPECT_TRUE(refresh.parked.empty());
    for (std::size_t i = 0; i < ledger.jobs.size(); ++i) {
        const PlanningJob &job = ledger.jobs[i];
        PlanHorizon d = plan_horizon(now, job.deadline,
                                     config.slot_seconds,
                                     config.max_slots);
        EXPECT_LE(ledger.plans[i].horizon(), d.slots)
            << "job " << job.id << " reserves past its relaxed horizon";
    }
    // Rows keep deadline order as given; the hopeless job's deadline
    // was actually relaxed, not dropped.
    EXPECT_EQ(ledger.jobs[0].id, 1);
    EXPECT_GT(ledger.jobs[0].deadline, now + 600.0);
    // The ledger's availability is what the two shares leave free.
    for (std::size_t t = 0; t < ledger.available.size(); ++t) {
        EXPECT_EQ(ledger.available[t],
                  config.total_gpus -
                      ledger.plans[0].at(static_cast<int>(t)) -
                      ledger.plans[1].at(static_cast<int>(t)))
            << "slot " << t;
    }
}

}  // namespace
}  // namespace ef
