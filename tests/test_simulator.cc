/**
 * @file
 * Tests for the event-driven simulator itself: progress accounting,
 * overhead charging, timeline recording, and the ClusterView contract.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/math_util.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

/** Trivial scheduler: every active job gets its requested GPUs. */
class FixedScheduler : public Scheduler
{
  public:
    std::string name() const override { return "fixed"; }

    SchedulerDecision
    allocate() override
    {
        SchedulerDecision decision;
        GpuCount free = view_->total_gpus();
        for (JobId id : view_->active_jobs()) {
            GpuCount req = view_->spec(id).requested_gpus;
            if (view_->remaining_iterations(id) > 0.0 && req <= free) {
                decision.set(id, req);
                free -= req;
            }
        }
        return decision;
    }
};

TEST(Simulator, SingleJobFinishTimeMatchesAnalyticDuration)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 100.0,
                           2.0 * kHour, 1.5)
                      .build();
    FixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);
    // Standalone duration was 2h by construction; the fluid simulator
    // must land within iteration-rounding error of submit + 2h.
    EXPECT_NEAR(result.jobs[0].finish_time, 100.0 + 2.0 * kHour, 2.0);
    EXPECT_EQ(result.jobs[0].first_run_time, 100.0);
}

TEST(Simulator, OverheadDelaysFinish)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 128, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler s1, s2;
    SimConfig with, without;
    without.overhead.enabled = false;
    Simulator sim_with(trace, &s1, with);
    Simulator sim_without(trace, &s2, without);
    Time t_with = sim_with.run().jobs[0].finish_time;
    Time t_without = sim_without.run().jobs[0].finish_time;
    EXPECT_GT(t_with, t_without);
    // The initial placement costs one checkpoint/restore (~seconds).
    EXPECT_LT(t_with - t_without, 2.0 * kMinute);
}

TEST(Simulator, AttainedServiceCountsGpuSeconds)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 4, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    // 4 GPUs for ~1 hour.
    EXPECT_NEAR(result.jobs[0].gpu_seconds, 4.0 * kHour,
                4.0 * kMinute);
}

TEST(Simulator, UsedGpusTimelineRisesAndFalls)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 64, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    Simulator sim(trace, &scheduler);
    RunResult result = sim.run();
    ASSERT_FALSE(result.used_gpus.empty());
    EXPECT_DOUBLE_EQ(result.used_gpus.value_at(60.0), 8.0);
    EXPECT_DOUBLE_EQ(
        result.used_gpus.value_at(result.makespan + 1.0), 0.0);
}

TEST(Simulator, ClusterEfficiencyBelowOneWithMultiGpuJobs)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    Simulator sim(trace, &scheduler);
    RunResult result = sim.run();
    double ce = result.cluster_efficiency.value_at(60.0);
    EXPECT_GT(ce, 0.0);
    // 8 GPUs of 32 at ~77% scaling efficiency: CE well below 0.25.
    EXPECT_LT(ce, 0.25);
}

TEST(Simulator, SubmittedAdmittedTimelines)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    EXPECT_DOUBLE_EQ(result.submitted_jobs.values().back(), 25.0);
    EXPECT_LE(result.admitted_jobs.values().back(), 25.0);
    EXPECT_DOUBLE_EQ(
        result.admitted_jobs.values().back(),
        static_cast<double>(result.admitted_count()));
}

TEST(Simulator, ViewExposesProgress)
{
    // Custom scheduler that asserts view invariants mid-run.
    class ProbeScheduler : public FixedScheduler
    {
      public:
        SchedulerDecision
        allocate() override
        {
            for (JobId id : view_->active_jobs()) {
                const JobSpec &spec = view_->spec(id);
                EXPECT_GE(view_->remaining_iterations(id), 0.0);
                EXPECT_LE(view_->remaining_iterations(id),
                          static_cast<double>(spec.iterations));
                EXPECT_GE(view_->attained_gpu_seconds(id), 0.0);
                const ScalingCurve &curve = view_->curve(id);
                EXPECT_FALSE(curve.empty());
                ++probes;
            }
            return FixedScheduler::allocate();
        }
        int probes = 0;
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kGpt2, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 2, 30.0, kHour, 2.0)
                      .build();
    ProbeScheduler scheduler;
    Simulator sim(trace, &scheduler);
    sim.run();
    EXPECT_GT(scheduler.probes, 0);
}

TEST(Simulator, OverSubscribedDecisionDies)
{
    class GreedyScheduler : public Scheduler
    {
      public:
        std::string name() const override { return "greedy"; }
        SchedulerDecision
        allocate() override
        {
            SchedulerDecision decision;
            for (JobId id : view_->active_jobs())
                decision.set(id, view_->total_gpus());
            return decision;
        }
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .build();
    GreedyScheduler scheduler;
    Simulator sim(trace, &scheduler);
    EXPECT_DEATH(sim.run(), "requested");
}

TEST(Simulator, DecisionEntriesForFinishedAndUnknownJobsAreIgnored)
{
    // FixedScheduler's decision plus one GPU for every job that has
    // left the active set and for an id the trace does not have.
    class StaleScheduler : public FixedScheduler
    {
      public:
        SchedulerDecision
        allocate() override
        {
            SchedulerDecision decision = FixedScheduler::allocate();
            const std::vector<JobId> active = view_->active_jobs();
            for (JobId id : seen_) {
                if (std::find(active.begin(), active.end(), id) ==
                    active.end()) {
                    decision.set(id, 1);
                    ++stale_entries;
                }
            }
            decision.set(1000, 1);
            seen_.insert(active.begin(), active.end());
            return decision;
        }

        int stale_entries = 0;

      private:
        std::set<JobId> seen_;
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 2, 0.0, 2.0 * kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 8, 600.0, kHour, 2.0)
                      .build();
    FixedScheduler plain;
    StaleScheduler stale;
    Simulator plain_sim(trace, &plain);
    Simulator stale_sim(trace, &stale);
    const RunResult want = plain_sim.run();
    const RunResult got = stale_sim.run();
    EXPECT_GT(stale.stale_entries, 0);
    EXPECT_EQ(got.state_hash, want.state_hash);
    ASSERT_EQ(got.allocation_log.size(), want.allocation_log.size());
    for (std::size_t i = 0; i < want.allocation_log.size(); ++i) {
        EXPECT_EQ(got.allocation_log[i].time, want.allocation_log[i].time);
        EXPECT_EQ(got.allocation_log[i].job, want.allocation_log[i].job);
        EXPECT_EQ(got.allocation_log[i].gpus, want.allocation_log[i].gpus);
    }
    ASSERT_EQ(got.jobs.size(), want.jobs.size());
    for (std::size_t i = 0; i < want.jobs.size(); ++i) {
        EXPECT_TRUE(got.jobs[i].finished);
        EXPECT_EQ(got.jobs[i].finish_time, want.jobs[i].finish_time);
        EXPECT_EQ(got.jobs[i].gpu_seconds, want.jobs[i].gpu_seconds);
    }
}

TEST(Simulator, JobLeftOutOfADecisionIsSuspended)
{
    // Both jobs start at once; from the first tick on, the decision
    // leaves job 0 out while job 1 is active, which suspends job 0
    // until job 1 finishes.
    class PreemptingScheduler : public FixedScheduler
    {
      public:
        Time reschedule_interval() const override { return 600.0; }

        SchedulerDecision
        allocate() override
        {
            const SchedulerDecision all = FixedScheduler::allocate();
            const std::vector<JobId> active = view_->active_jobs();
            if (view_->now() == 0.0 ||
                std::find(active.begin(), active.end(), 1) == active.end())
                return all;
            SchedulerDecision decision;
            for (const auto &[id, gpus] : all.entries()) {
                if (id != 0)
                    decision.set(id, gpus);
            }
            return decision;
        }
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 4.0)
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 4.0)
                      .build();
    PreemptingScheduler scheduler;
    Simulator sim(trace, &scheduler);
    const RunResult result = sim.run();
    std::vector<std::pair<Time, std::size_t>> job0;
    for (const AllocationEvent &event : result.allocation_log) {
        if (event.job == 0)
            job0.emplace_back(event.time, event.gpus.size());
    }
    ASSERT_EQ(job0.size(), 3u);
    EXPECT_EQ(job0[0], std::make_pair(0.0, std::size_t{2}));
    EXPECT_EQ(job0[1], std::make_pair(600.0, std::size_t{0}));
    EXPECT_EQ(job0[2].first, result.jobs[1].finish_time);
    EXPECT_TRUE(result.jobs[0].finished);
    EXPECT_GT(result.jobs[0].finish_time, result.jobs[1].finish_time);
}

TEST(Simulator, DuplicateJobIdsDie)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 2, 0.0, kHour, 2.0)
                      .build();
    trace.jobs.push_back(trace.jobs[0]);
    FixedScheduler scheduler;
    EXPECT_DEATH(Simulator sim(trace, &scheduler), "duplicate job id");
}

/** FixedScheduler with a periodic tick, so tick collisions can occur. */
class TickingFixedScheduler : public FixedScheduler
{
  public:
    Time reschedule_interval() const override { return 600.0; }
};

RunResult
run_replan_config(const Trace &trace, bool coalesce, bool elide)
{
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.coalesce_replans = coalesce;
    config.elide_replans = elide;
    Simulator sim(trace, &scheduler, config);
    return sim.run();
}

TEST(Simulator, ReplanElisionPreservesOutcomes)
{
    // The second arrival lands exactly on a tick boundary (t = 600 s,
    // the tick armed by the first flush at t = 0). Arrivals pop before
    // the tick (lower sequence number), so without coalescing the tick
    // finds a decision already made at its own timestamp and nothing
    // dirty — the textbook elidable replan.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0,
                           2.0 * kHour, 1.5)
                      .slo(DnnModel::kBert, 64, 8, 600.0, kHour, 2.0)
                      .build();

    RunResult baseline = run_replan_config(trace, false, false);
    RunResult elided = run_replan_config(trace, false, true);
    RunResult coalesced = run_replan_config(trace, true, false);
    RunResult both = run_replan_config(trace, true, true);

    EXPECT_EQ(baseline.replans_elided, 0);
    EXPECT_EQ(baseline.replans_coalesced, 0);
    EXPECT_GE(elided.replans_elided, 1);
    EXPECT_GE(coalesced.replans_coalesced, 1);

    // Every event raises the same requests regardless of how they are
    // serviced, and elision/coalescing must not change any outcome.
    for (const RunResult *r : {&elided, &coalesced, &both}) {
        EXPECT_EQ(r->replans_attempted, baseline.replans_attempted);
        ASSERT_EQ(r->jobs.size(), baseline.jobs.size());
        for (std::size_t i = 0; i < baseline.jobs.size(); ++i) {
            const JobOutcome &want = baseline.jobs[i];
            const JobOutcome &got = r->jobs[i];
            EXPECT_EQ(got.admitted, want.admitted);
            EXPECT_EQ(got.finished, want.finished);
            EXPECT_EQ(got.met_deadline(), want.met_deadline());
            EXPECT_DOUBLE_EQ(got.finish_time, want.finish_time);
            EXPECT_DOUBLE_EQ(got.first_run_time, want.first_run_time);
            EXPECT_DOUBLE_EQ(got.gpu_seconds, want.gpu_seconds);
        }
    }
}

TEST(Simulator, CoalescingMergesSimultaneousArrivals)
{
    // Three jobs submitted at the same instant: coalescing services
    // the burst with one scheduler invocation instead of three.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 64, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kVgg16, 128, 4, 0.0, kHour, 2.0)
                      .build();
    RunResult merged = run_replan_config(trace, true, true);
    EXPECT_GE(merged.replans_coalesced, 2);
    for (const JobOutcome &job : merged.jobs) {
        EXPECT_TRUE(job.finished);
        EXPECT_TRUE(job.met_deadline());
    }
}

TEST(Simulator, MigrationsAreCountedAndCharged)
{
    // Force defragmentation: odd-sized jobs fill servers, then a job
    // needs a compact block.
    Trace trace = TraceGenerator::generate(testbed_large_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    int migrations = 0;
    for (const JobOutcome &job : result.jobs)
        migrations += job.migrations;
    EXPECT_GT(migrations, 0);
}

TEST(Simulator, FailureAtArrivalBurstCoalescesIntoOneReplan)
{
    // Three replan sources collide at t = 600: an arrival, a scripted
    // server crash, and the periodic tick armed at t = 0. Coalescing
    // must merge them into a single scheduler invocation, and the
    // crash victim must be re-placed by that very invocation.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 4.0)
                      .slo(DnnModel::kBert, 64, 4, 600.0, kHour, 4.0)
                      .build();
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.faults.script.push_back(
        {600.0, FaultType::kServerCrash, 0, 1800.0, 0.0});
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();

    EXPECT_GE(result.replans_coalesced, 2);
    EXPECT_EQ(result.jobs[0].failures_suffered, 1);
    EXPECT_EQ(result.jobs[1].failures_suffered, 0);
    for (const JobOutcome &job : result.jobs)
        EXPECT_TRUE(job.finished) << job.spec.id;
    // The coalesced replan at t = 600 both evicted and re-placed the
    // victim: its allocation log shows the eviction followed by a new
    // placement at the same timestamp.
    bool evicted_at_600 = false;
    bool replaced_at_600 = false;
    for (const AllocationEvent &event : result.allocation_log) {
        if (event.job != 0 || !almost_equal(event.time, 600.0))
            continue;
        if (event.gpus.empty())
            evicted_at_600 = true;
        else if (evicted_at_600)
            replaced_at_600 = true;
    }
    EXPECT_TRUE(evicted_at_600);
    EXPECT_TRUE(replaced_at_600);
}

TEST(Simulator, JobsOfOneShapeShareOneCurve)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .slo(DnnModel::kResNet50, 128, 8, 10.0, kHour, 2.0)
                      .slo(DnnModel::kResNet50, 256, 4, 20.0, kHour, 2.0)
                      .slo(DnnModel::kBert, 128, 4, 30.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    Simulator sim(trace, &scheduler);
    const std::vector<double> *shared = &sim.curve(0).table();
    EXPECT_EQ(&sim.curve(1).table(), shared);
    EXPECT_NE(&sim.curve(2).table(), shared);
    EXPECT_NE(&sim.curve(3).table(), shared);
    EXPECT_NE(&sim.curve(3).table(), &sim.curve(2).table());
    // Admission sees the same curve for a trace shape.
    for (const JobSpec &spec : trace.jobs)
        EXPECT_EQ(&sim.curve_for(spec).table(), &sim.curve(spec.id).table());
    // A shape outside the trace gets a fresh curve of the same value
    // a job of that shape would hold.
    JobSpec other = trace.jobs[0];
    other.model = DnnModel::kVgg16;
    const ScalingCurve fresh = sim.curve_for(other);
    EXPECT_FALSE(fresh.empty());
    EXPECT_EQ(fresh.table(), sim.curve_for(other).table());
    EXPECT_NE(&fresh.table(), &sim.curve_for(other).table());
}

}  // namespace
}  // namespace ef
