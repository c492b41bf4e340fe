/**
 * @file
 * Fault-injection subsystem tests: injector determinism, scripted
 * fault parsing, per-GPU availability, and end-to-end degradation
 * through the simulator (retries, evictions, demotions, counters).
 */
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "fault/fault.h"
#include "sched/elastic_flow.h"
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

/** FixedScheduler that also replans periodically. */
class TickingFixedScheduler : public FixedScheduler
{
  public:
    Time reschedule_interval() const override { return 600.0; }
};

TEST(FaultInjector, ClassStreamsAreIndependent)
{
    FaultConfig base;
    base.seed = 42;
    base.server_mtbf_s = kDay;
    base.gpu_mtbf_s = kDay;

    FaultConfig with_rpc = base;
    with_rpc.rpc_drop_prob = 0.5;

    FaultInjector a(base);
    FaultInjector b(with_rpc);
    // Enabling the RPC class must not perturb the other streams.
    for (int i = 0; i < 8; ++i) {
        (void)b.rpc_attempt_lost();
        EXPECT_DOUBLE_EQ(a.server_crash_delay(), b.server_crash_delay());
        EXPECT_DOUBLE_EQ(a.gpu_fault_delay(32), b.gpu_fault_delay(32));
    }
}

TEST(FaultInjector, ExplicitServerSeedReplaysVerbatim)
{
    FaultConfig config;
    config.seed = 7;
    config.server_mtbf_s = kDay;
    config.server_seed = 1;  // replaces the seed derived from 7
    FaultInjector injector(config);
    Rng server(1);
    for (int i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(injector.server_crash_delay(),
                         server.exponential(1.0 / kDay));
    }
}

TEST(FaultInjector, DisabledClassesDrawNothing)
{
    FaultConfig config;
    config.seed = 3;
    FaultInjector injector(config);
    EXPECT_FALSE(injector.rpc_attempt_lost());
    EXPECT_FALSE(injector.straggler_starts());
    EXPECT_FALSE(injector.checkpoint_write_fails(0, 100.0));
    EXPECT_DOUBLE_EQ(injector.rpc_delay(), 0.0);
    EXPECT_FALSE(config.any());
}

TEST(FaultInjector, BackoffIsBoundedExponential)
{
    FaultConfig config;
    config.rpc_backoff_base_s = 0.2;
    config.rpc_backoff_cap_s = 1.0;
    FaultInjector injector(config);
    EXPECT_DOUBLE_EQ(injector.rpc_backoff(1), 0.2);
    EXPECT_DOUBLE_EQ(injector.rpc_backoff(2), 0.4);
    EXPECT_DOUBLE_EQ(injector.rpc_backoff(3), 0.8);
    EXPECT_DOUBLE_EQ(injector.rpc_backoff(4), 1.0);  // capped
    EXPECT_DOUBLE_EQ(injector.rpc_backoff(10), 1.0);
}

TEST(FaultInjector, ScriptedRpcDropsMatchJobAndTime)
{
    FaultConfig config;
    config.script.push_back({100.0, FaultType::kRpcDrop, 3, 0.0, 2.0});
    config.script.push_back({200.0, FaultType::kRpcDrop, -1, 0.0, 0.0});
    FaultInjector injector(config);
    EXPECT_EQ(injector.take_scripted_rpc_drops(3, 50.0), 0);   // too early
    EXPECT_EQ(injector.take_scripted_rpc_drops(5, 150.0), 0);  // wrong job
    EXPECT_EQ(injector.take_scripted_rpc_drops(3, 150.0), 2);  // magnitude
    EXPECT_EQ(injector.take_scripted_rpc_drops(3, 150.0), 0);  // consumed
    EXPECT_EQ(injector.take_scripted_rpc_drops(9, 250.0), 1);  // wildcard
}

TEST(FaultInjector, ScriptedCkptFailConsumedOnce)
{
    FaultConfig config;
    config.script.push_back({100.0, FaultType::kCkptFail, 2, 0.0, 0.0});
    FaultInjector injector(config);
    EXPECT_FALSE(injector.checkpoint_write_fails(2, 50.0));
    EXPECT_TRUE(injector.checkpoint_write_fails(2, 120.0));
    EXPECT_FALSE(injector.checkpoint_write_fails(2, 130.0));
}

TEST(FaultScript, ParsesAllFields)
{
    std::vector<FaultEvent> script;
    ASSERT_FALSE(parse_fault_script("time,type,target,duration,magnitude\n"
                                    "100,server-crash,1,3600,0\n"
                                    "200.5,gpu-fault,7,0,0\n"
                                    "300,straggler,2,600,2.5\n"
                                    "400,rpc-drop,0,0,3\n"
                                    "500,ckpt-fail,-1,0,0\n",
                                    &script)
                     .has_value());
    ASSERT_EQ(script.size(), 5u);
    EXPECT_EQ(script[0].type, FaultType::kServerCrash);
    EXPECT_DOUBLE_EQ(script[0].duration_s, 3600.0);
    EXPECT_EQ(script[1].type, FaultType::kGpuFault);
    EXPECT_DOUBLE_EQ(script[1].time, 200.5);
    EXPECT_EQ(script[2].type, FaultType::kStraggler);
    EXPECT_DOUBLE_EQ(script[2].magnitude, 2.5);
    EXPECT_EQ(script[3].type, FaultType::kRpcDrop);
    EXPECT_EQ(script[4].target, -1);
}

TEST(FaultScript, ParsesArrivalStorms)
{
    std::vector<FaultEvent> script;
    ASSERT_FALSE(parse_fault_script("time,type,target,duration,magnitude\n"
                                    "50,arrival-storm,-1,600,4\n",
                                    &script)
                     .has_value());
    ASSERT_EQ(script.size(), 1u);
    EXPECT_EQ(script[0].type, FaultType::kArrivalStorm);
    EXPECT_DOUBLE_EQ(script[0].duration_s, 600.0);
    EXPECT_DOUBLE_EQ(script[0].magnitude, 4.0);
}

TEST(FaultInjector, ArrivalStormsMultiplyAndCompound)
{
    FaultConfig config;
    config.script.push_back(
        {100.0, FaultType::kArrivalStorm, -1, 200.0, 3.0});
    config.script.push_back(
        {150.0, FaultType::kArrivalStorm, -1, 50.0, 2.0});
    FaultInjector injector(config);
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(0.0), 1.0);
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(120.0), 3.0);
    // Overlap compounds multiplicatively.
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(160.0), 6.0);
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(250.0), 3.0);
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(300.0), 1.0);
    // Window ends are half-open: [time, time + duration).
    EXPECT_DOUBLE_EQ(injector.arrival_rate_multiplier(99.9), 1.0);
}

/** The error parse_fault_script returns for @p text (none = ok). */
std::optional<FaultScriptError>
script_error(const std::string &text)
{
    std::vector<FaultEvent> script;
    return parse_fault_script(text, &script);
}

TEST(FaultScript, MalformedRowsNameTheLine)
{
    std::optional<FaultScriptError> error =
        script_error("time,type,target\nabc,server-crash,1\n");
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->line, 2);
    EXPECT_NE(error->to_string().find("line 2"), std::string::npos);
    EXPECT_NE(error->message.find("not a number"), std::string::npos);

    error = script_error("time,type,target\n"
                         "100,server-crash,1\n"
                         "200,martian-attack,1\n");
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->line, 3);
    EXPECT_NE(error->to_string().find("line 3"), std::string::npos);
    EXPECT_NE(error->message.find("martian-attack"), std::string::npos);

    error = script_error("time,type,target\n100,server-crash\n");
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->line, 2);
    EXPECT_NE(error->to_string().find("line 2"), std::string::npos);
    EXPECT_NE(error->message.find("expected 3 fields, got 2"),
              std::string::npos);

    error = script_error("time,target\n100,1\n");
    ASSERT_TRUE(error.has_value());
    EXPECT_EQ(error->line, 1);
    EXPECT_NE(error->message.find("time,type,target"), std::string::npos);
    EXPECT_NE(error->message.find("'type'"), std::string::npos);
}

TEST(FaultScript, ErrorLeavesOutputUntouched)
{
    std::vector<FaultEvent> script = {
        {1.0, FaultType::kGpuFault, 3, 0.0, 0.0}};
    // strtod reads "nan", but a NaN time is not a number either.
    EXPECT_TRUE(parse_fault_script("time,type,target\n"
                                   "1,gpu-fault,1\n"
                                   "nan,gpu-fault,2\n",
                                   &script)
                    .has_value());
    ASSERT_EQ(script.size(), 1u);
    EXPECT_EQ(script[0].target, 3);
}

TEST(PlacementGpuFaults, DownGpuIsSkippedByAllStrategies)
{
    Topology topo(TopologySpec::testbed_32());
    for (PlacementStrategy strategy :
         {PlacementStrategy::kBestFitCompact, PlacementStrategy::kFirstFit,
          PlacementStrategy::kScatter}) {
        PlacementManager pm(&topo);
        pm.set_gpu_available(0, false);
        EXPECT_EQ(pm.available_gpus(), 31);
        EXPECT_EQ(pm.idle_gpus(), 31);
        PlacementResult result = pm.place(1, 8, strategy, false);
        ASSERT_TRUE(result.ok);
        for (GpuCount g : result.gpus)
            EXPECT_NE(g, 0);
        pm.validate();
    }
}

TEST(PlacementGpuFaults, RepairRestoresCapacity)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    pm.set_gpu_available(3, false);
    EXPECT_FALSE(pm.gpu_available(3));
    EXPECT_EQ(pm.idle_gpus(), 15);
    // A whole-server request on server 0 no longer fits there.
    PlacementResult r = pm.place(1, 8, PlacementStrategy::kBestFitCompact,
                                 false);
    ASSERT_TRUE(r.ok);
    for (GpuCount g : r.gpus)
        EXPECT_GE(g, 8);  // placed on server 1
    pm.set_gpu_available(3, true);
    EXPECT_TRUE(pm.gpu_available(3));
    EXPECT_EQ(pm.idle_gpus(), 8);
    pm.validate();
}

TEST(PlacementGpuFaults, ServerDrainAccountsForDownGpus)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    pm.set_gpu_available(2, false);
    // Server 0 has 7 free + 1 down = 8: it still counts as drained.
    pm.set_server_available(0, false);
    EXPECT_EQ(pm.available_gpus(), 8);
    pm.set_server_available(0, true);
    EXPECT_EQ(pm.available_gpus(), 15);
    pm.validate();
}

TEST(PlacementGpuFaultsDeathTest, OwnedGpuCannotGoDown)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    PlacementResult r = pm.place(1, 4, PlacementStrategy::kFirstFit, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(pm.owner_of(r.gpus[0]), 1);
    EXPECT_DEATH(pm.set_gpu_available(r.gpus[0], false), "released");
}

// --- end-to-end degradation through the simulator -----------------------

TEST(FaultE2E, DisabledInjectionIsByteIdenticalPinned)
{
    // Regression anchor: with every fault class at rate 0 the injector
    // is never constructed and the run must stay byte-identical to the
    // pre-fault-layer simulator. These constants were captured from
    // the seed; EXPECT_EQ (not NEAR) on purpose.
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 20;
    Trace trace = TraceGenerator::generate(gen);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), SimConfig{});
    RunResult result = sim.run();

    EXPECT_EQ(result.jobs.size(), 20u);
    EXPECT_EQ(result.admitted_count(), 14u);
    EXPECT_EQ(result.finished_count(), 14u);
    EXPECT_EQ(result.makespan, 15493.044547805748);
    EXPECT_EQ(result.total_gpu_seconds(), 369450.60321067006);

    const std::map<JobId, double> finish = {
        {0, 2512.234087531413},   {1, 12569.939762592578},
        {2, 10580.795437908575},  {3, 6584.0496610608134},
        {6, 6367.3047096697956},  {7, 7595.4668990500531},
        {8, 9626.8958148920956},  {9, 8114.3659252773996},
        {11, 11240.061856931301}, {12, 10761.758492698513},
        {15, 9779.7710631470654}, {16, 13039.005968182129},
        {17, 15493.044547805748}, {18, 14485.652272362015},
    };
    for (const JobOutcome &job : result.jobs) {
        auto it = finish.find(job.spec.id);
        if (it == finish.end()) {
            EXPECT_FALSE(job.admitted) << job.spec.id;
        } else {
            EXPECT_TRUE(job.finished) << job.spec.id;
            EXPECT_EQ(job.finish_time, it->second) << job.spec.id;
        }
        EXPECT_FALSE(job.demoted) << job.spec.id;
    }
    EXPECT_EQ(result.rpc_retries, 0);
    EXPECT_EQ(result.rpc_gave_up, 0);
    EXPECT_EQ(result.stragglers_observed, 0);
    EXPECT_EQ(result.gpu_faults, 0);
    EXPECT_EQ(result.ckpt_failures, 0);
    EXPECT_EQ(result.slo_demotions, 0);
}

TEST(FaultE2E, ServerCrashClassReplaysPinned)
{
    // Server crashes at a one-day MTBF from server seed 1: the draw
    // sequence, and so the whole run, must replay the captured
    // constants below.
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 15;
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    config.faults.server_mtbf_s = kDay;
    config.faults.server_seed = 1;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    RunResult result = sim.run();
    EXPECT_EQ(result.makespan, 15420.712575184702);
    EXPECT_EQ(result.finished_count(), 10u);
}

TEST(FaultE2E, ScriptedRpcDropIsRetriedThenApplied)
{
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .build();
    auto run_with = [&trace](int forced_drops) {
        FixedScheduler scheduler;
        SimConfig config;
        config.overhead.enabled = false;
        if (forced_drops > 0) {
            config.faults.script.push_back(
                {0.0, FaultType::kRpcDrop, 0, 0.0,
                 static_cast<double>(forced_drops)});
        }
        Simulator sim(trace, &scheduler, config);
        return sim.run();
    };
    RunResult clean = run_with(0);
    RunResult faulty = run_with(2);
    ASSERT_TRUE(clean.jobs[0].finished);
    ASSERT_TRUE(faulty.jobs[0].finished);
    EXPECT_EQ(faulty.rpc_retries, 2);
    EXPECT_EQ(faulty.rpc_gave_up, 0);
    // Both lost attempts charged bounded exponential backoff
    // (0.2 + 0.4 s) to the launch.
    EXPECT_NEAR(faulty.jobs[0].finish_time,
                clean.jobs[0].finish_time + 0.6, 1e-6);
}

TEST(FaultE2E, RpcGiveUpIsReconciledByLaterReplan)
{
    // The launch command is lost beyond rpc_max_retries: the job stays
    // suspended until the next periodic replan reissues it.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 3.0)
                      .build();
    TickingFixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.faults.script.push_back(
        {0.0, FaultType::kRpcDrop, 0, 0.0, 10.0});
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    EXPECT_EQ(result.rpc_gave_up, 1);
    EXPECT_EQ(result.rpc_retries, 5);  // default rpc_max_retries
    ASSERT_TRUE(result.jobs[0].finished);
    EXPECT_DOUBLE_EQ(result.jobs[0].first_run_time, 600.0);
    EXPECT_TRUE(result.jobs[0].met_deadline());
}

TEST(FaultE2E, ScriptedGpuFaultEvictsOnlyColocatedJob)
{
    // Two compact 8-GPU jobs on different servers; GPU 0 fails. Only
    // its owner is evicted and rolled back; the other job never
    // notices.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 4.0)
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, kHour, 4.0)
                      .build();
    auto run_with = [&trace](bool fault) {
        FixedScheduler scheduler;
        SimConfig config;
        config.overhead.enabled = false;
        if (fault) {
            config.faults.script.push_back(
                {1000.0, FaultType::kGpuFault, 0, 10.0 * kHour, 0.0});
        }
        Simulator sim(trace, &scheduler, config);
        return sim.run();
    };
    RunResult clean = run_with(false);
    RunResult faulty = run_with(true);
    EXPECT_EQ(faulty.gpu_faults, 1);
    EXPECT_EQ(faulty.jobs[0].failures_suffered, 1);
    EXPECT_EQ(faulty.jobs[1].failures_suffered, 0);
    ASSERT_TRUE(faulty.jobs[0].finished);
    ASSERT_TRUE(faulty.jobs[1].finished);
    // The victim lost progress back to its checkpoint; the co-located
    // job's trajectory is untouched.
    EXPECT_GT(faulty.jobs[0].finish_time, clean.jobs[0].finish_time);
    EXPECT_DOUBLE_EQ(faulty.jobs[1].finish_time,
                     clean.jobs[1].finish_time);
}

TEST(FaultE2E, SloJobDemotedExactlyOnceAfterCrash)
{
    // Both servers crash mid-run for longer than the job's remaining
    // slack: ElasticFlow finds the SLO unmeetable, demotes the job to
    // best-effort exactly once (despite replanning every slot while
    // the cluster is down), and lets it finish late after repair.
    Trace trace = TraceBuilder(TopologySpec::with_total_gpus(16))
                      .slo(DnnModel::kVgg16, 256, 8, 0.0, 2.0 * kHour,
                           1.05)
                      .build();
    SimConfig config;
    config.faults.script.push_back(
        {1800.0, FaultType::kServerCrash, 0, 2.0 * kHour, 0.0});
    config.faults.script.push_back(
        {1800.0, FaultType::kServerCrash, 1, 2.0 * kHour, 0.0});
    ElasticFlowScheduler scheduler;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();

    EXPECT_EQ(result.slo_demotions, 1);
    EXPECT_TRUE(result.jobs[0].demoted);
    EXPECT_EQ(result.jobs[0].failures_suffered, 1);
    ASSERT_TRUE(result.jobs[0].finished);
    EXPECT_FALSE(result.jobs[0].met_deadline());
}

TEST(FaultE2E, RateStragglersSlowJobsAndAreCounted)
{
    // straggler_prob = 1 with an effectively infinite window: the job
    // runs its whole life at half speed.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 4.0)
                      .build();
    auto run_with = [&trace](double prob) {
        FixedScheduler scheduler;
        SimConfig config;
        config.overhead.enabled = false;
        config.faults.straggler_prob = prob;
        config.faults.straggler_slowdown = 2.0;
        config.faults.straggler_duration_s = 10.0 * kDay;
        Simulator sim(trace, &scheduler, config);
        return sim.run();
    };
    RunResult clean = run_with(0.0);
    RunResult slow = run_with(1.0);
    EXPECT_EQ(clean.stragglers_observed, 0);
    EXPECT_EQ(slow.stragglers_observed, 1);
    ASSERT_TRUE(slow.jobs[0].finished);
    EXPECT_NEAR(slow.jobs[0].finish_time,
                2.0 * clean.jobs[0].finish_time, 5.0);
}

TEST(FaultE2E, ScriptedStragglerWindowEnds)
{
    // A bounded scripted straggler episode runs the job at 1/factor
    // speed for the window, costing (1 - 1/factor) x window, then
    // full speed resumes.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 4.0)
                      .build();
    auto run_with = [&trace](bool straggle) {
        FixedScheduler scheduler;
        SimConfig config;
        config.overhead.enabled = false;
        if (straggle) {
            config.faults.script.push_back(
                {100.0, FaultType::kStraggler, 0, 600.0, 3.0});
        }
        Simulator sim(trace, &scheduler, config);
        return sim.run();
    };
    RunResult clean = run_with(false);
    RunResult slow = run_with(true);
    EXPECT_EQ(slow.stragglers_observed, 1);
    ASSERT_TRUE(slow.jobs[0].finished);
    EXPECT_NEAR(slow.jobs[0].finish_time,
                clean.jobs[0].finish_time + (1.0 - 1.0 / 3.0) * 600.0,
                5.0);
}

TEST(FaultE2E, CheckpointWriteFailuresAreCounted)
{
    // Every checkpoint write fails; the launch-time checkpoint is the
    // only scale event, so exactly one failure — and the job still
    // finishes (the in-memory run is unaffected until an eviction).
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kResNet50, 128, 4, 0.0, kHour, 2.0)
                      .build();
    FixedScheduler scheduler;
    SimConfig config;
    config.overhead.enabled = false;
    config.faults.ckpt_failure_prob = 1.0;
    Simulator sim(trace, &scheduler, config);
    RunResult result = sim.run();
    EXPECT_EQ(result.ckpt_failures, 1);
    EXPECT_TRUE(result.jobs[0].finished);
}

TEST(FaultE2E, RunsAreDeterministicUnderAllFaultClasses)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 15;
    Trace trace = TraceGenerator::generate(gen);
    auto run_once = [&trace]() {
        SimConfig config;
        config.faults.seed = 9;
        config.faults.server_mtbf_s = 2.0 * kDay;
        config.faults.gpu_mtbf_s = kDay;
        config.faults.rpc_drop_prob = 0.1;
        config.faults.straggler_prob = 0.2;
        config.faults.ckpt_failure_prob = 0.2;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        return sim.run();
    };
    RunResult a = run_once();
    RunResult b = run_once();
    EXPECT_EQ(a.rpc_retries, b.rpc_retries);
    EXPECT_EQ(a.gpu_faults, b.gpu_faults);
    EXPECT_EQ(a.stragglers_observed, b.stragglers_observed);
    EXPECT_EQ(a.ckpt_failures, b.ckpt_failures);
    EXPECT_EQ(a.slo_demotions, b.slo_demotions);
    EXPECT_EQ(a.makespan, b.makespan);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].finished, b.jobs[i].finished) << i;
        EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << i;
    }
}

}  // namespace
}  // namespace ef
