/**
 * @file
 * Tests for the node-failure extension (§4.4): placement-level server
 * availability, failure/repair dynamics in the simulator, checkpoint
 * rollback, ElasticFlow's failure headroom, and throughput-noise
 * robustness.
 */
#include <gtest/gtest.h>

#include "common/math_util.h"
#include "sched/elastic_flow.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

TEST(PlacementAvailability, DownServersHoldNothing)
{
    Topology topo(TopologySpec::testbed_32());
    PlacementManager manager(&topo);
    EXPECT_EQ(manager.available_gpus(), 32);

    manager.set_server_available(1, false);
    EXPECT_EQ(manager.available_gpus(), 24);
    EXPECT_EQ(manager.idle_gpus(), 24);
    EXPECT_EQ(manager.free_in_server(1), 0);
    EXPECT_FALSE(manager.server_available(1));

    // Placements avoid the down server even via repack.
    for (int i = 0; i < 3; ++i) {
        PlacementResult r = manager.place(
            i, 8, PlacementStrategy::kBestFitCompact, true);
        ASSERT_TRUE(r.ok) << i;
        for (GpuCount g : r.gpus)
            EXPECT_NE(topo.server_of(g), 1);
    }
    // A fourth 8-GPU job no longer fits.
    EXPECT_FALSE(manager
                     .place(99, 8, PlacementStrategy::kBestFitCompact,
                            true)
                     .ok);
    manager.validate();

    manager.set_server_available(1, true);
    EXPECT_TRUE(manager
                    .place(99, 8, PlacementStrategy::kBestFitCompact,
                           true)
                    .ok);
    manager.validate();
}

TEST(PlacementAvailability, OccupiedServerCannotGoDown)
{
    Topology topo(TopologySpec::testbed_32());
    PlacementManager manager(&topo);
    ASSERT_TRUE(manager.place(1, 8, PlacementStrategy::kFirstFit,
                              false).ok);
    EXPECT_DEATH(manager.set_server_available(0, false), "drained");
}

TEST(Failures, JobsSurviveServerFailures)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 20;
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    config.faults.server_mtbf_s = 12.0 * kHour;  // aggressive
    config.faults.server_repair_s = kHour;
    config.faults.server_seed = 1;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    RunResult result = sim.run();

    int evictions = 0;
    for (const JobOutcome &job : result.jobs) {
        evictions += job.failures_suffered;
        if (job.admitted) {
            EXPECT_TRUE(job.finished) << "job " << job.spec.id;
        }
    }
    EXPECT_GT(evictions, 0) << "failure model produced no evictions";
}

TEST(Failures, CheckpointRollbackDelaysVictims)
{
    // One long job; a failure mid-run must push its finish time out
    // relative to a failure-free run.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, 10.0 * kHour,
                           3.0)
                      .build();
    auto run_with = [&trace](bool failures) {
        SimConfig config;
        config.faults.server_mtbf_s = failures ? 6.0 * kHour : 0.0;
        config.faults.server_repair_s = 30.0 * kMinute;
        config.faults.server_seed = 3;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        return sim.run();
    };
    RunResult clean = run_with(false);
    RunResult faulty = run_with(true);
    ASSERT_TRUE(clean.jobs[0].finished);
    ASSERT_TRUE(faulty.jobs[0].finished);
    if (faulty.jobs[0].failures_suffered > 0) {
        EXPECT_GT(faulty.jobs[0].finish_time, clean.jobs[0].finish_time);
    }
}

TEST(Failures, HeadroomProtectsDeadlinesUnderFailures)
{
    TraceGenConfig gen = testbed_large_preset();
    gen.num_jobs = 80;
    Trace trace = TraceGenerator::generate(gen);

    auto run_with = [&trace](GpuCount headroom) {
        SimConfig config;
        config.faults.server_mtbf_s = 5.0 * kDay;
        config.faults.server_repair_s = 2.0 * kHour;
        config.faults.server_seed = 1;
        ElasticFlowConfig ef_config;
        ef_config.failure_headroom_gpus = headroom;
        ElasticFlowScheduler scheduler(ef_config);
        Simulator sim(trace, &scheduler, config);
        RunResult result = sim.run();
        int missed = 0;
        for (const JobOutcome &job : result.jobs) {
            if (job.admitted && job.spec.kind == JobKind::kSlo &&
                !job.met_deadline()) {
                ++missed;
            }
        }
        return missed;
    };
    int missed_with = run_with(16);  // two servers' worth of reserve
    int missed_without = run_with(0);
    EXPECT_LE(missed_with, missed_without);
    EXPECT_LE(missed_with, 1);
}

TEST(Failures, DeterministicUnderFailures)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 15;
    Trace trace = TraceGenerator::generate(gen);
    auto run_once = [&trace]() {
        SimConfig config;
        config.faults.server_mtbf_s = kDay;
        config.faults.server_seed = 1;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        return sim.run();
    };
    RunResult a = run_once();
    RunResult b = run_once();
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].failures_suffered,
                  b.jobs[i].failures_suffered) << i;
        if (a.jobs[i].finished && b.jobs[i].finished) {
            EXPECT_DOUBLE_EQ(a.jobs[i].finish_time,
                             b.jobs[i].finish_time) << i;
        }
    }
}

TEST(Failures, PostFailureReplanIsNeverElided)
{
    // With immediate (uncoalesced) replans and elision on, three
    // requests land at t = 600 in order: arrival (flushes, decides),
    // scripted crash (must NOT be elided — the fault dirtied the
    // view), and the colliding tick (elidable). The crash victim must
    // be re-placed by the crash-triggered replan at that same
    // timestamp.
    class TickingFixedScheduler : public Scheduler
    {
      public:
        std::string name() const override { return "fixed"; }
        Time reschedule_interval() const override { return 600.0; }
        SchedulerDecision
        allocate() override
        {
            SchedulerDecision decision;
            GpuCount free = view_->total_gpus();
            for (JobId id : view_->active_jobs()) {
                GpuCount req = view_->spec(id).requested_gpus;
                if (view_->remaining_iterations(id) > 0.0 &&
                    req <= free) {
                    decision.set(id, req);
                    free -= req;
                }
            }
            return decision;
        }
    };
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 4.0)
                      .slo(DnnModel::kBert, 64, 4, 600.0, kHour, 4.0)
                      .build();
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.coalesce_replans = false;
    config.elide_replans = true;
    config.faults.script.push_back(
        {600.0, FaultType::kServerCrash, 0, 1800.0, 0.0});
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();

    EXPECT_GE(result.replans_elided, 1);  // elision is active...
    EXPECT_EQ(result.jobs[0].failures_suffered, 1);
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
    // ...yet the post-failure replan ran despite a decision already
    // made at t = 600, because the fault dirtied the view.
    EXPECT_TRUE(replaced_at_600);
    for (const JobOutcome &job : result.jobs)
        EXPECT_TRUE(job.finished) << job.spec.id;
}

TEST(Noise, SmallProfilingErrorIsAbsorbedByMargin)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 30;
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    config.noise.throughput_error = 0.02;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    RunResult result = sim.run();
    for (const JobOutcome &job : result.jobs) {
        if (job.admitted && job.spec.kind == JobKind::kSlo) {
            EXPECT_TRUE(job.met_deadline()) << job.spec.id;
        }
    }
}

TEST(Noise, LargeErrorDegradesGracefully)
{
    // 25% misestimation exceeds the margin: some admitted jobs may
    // slip, but everything still completes and nothing crashes.
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 30;
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    config.noise.throughput_error = 0.25;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    RunResult result = sim.run();
    for (const JobOutcome &job : result.jobs) {
        if (job.admitted) {
            EXPECT_TRUE(job.finished) << job.spec.id;
        }
    }
}

}  // namespace
}  // namespace ef
