/**
 * @file
 * Integration tests: fluid-simulator vs. iteration-granular executor
 * fidelity (the analog of the paper's <=3% simulator error claim),
 * end-to-end scheduler ordering on the evaluation traces, and
 * determinism.
 */
#include <gtest/gtest.h>

#include <map>

#include "exec/executor.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

TEST(Fidelity, FluidSimMatchesExecutorOnFixedAllocation)
{
    Topology topo(TopologySpec::testbed_32());
    PerfModel perf(&topo);
    OverheadModel overhead{OverheadConfig{}};

    TraceBuilder builder(TopologySpec::testbed_32());
    builder.slo(DnnModel::kVgg16, 256, 8, 0.0, 2.0 * kHour, 2.0);
    Trace trace = builder.build();
    const JobSpec &spec = trace.jobs[0];

    // Executor: run on GPUs 0..7 from t=0.
    JobExecution exec(spec, &perf, &overhead);
    exec.scale(0.0, {0, 1, 2, 3, 4, 5, 6, 7});
    exec.advance(1e9);
    ASSERT_TRUE(exec.finished());
    Time exec_finish = exec.last_progress_time();

    // Fluid simulator with a scheduler that grants exactly 8 GPUs.
    class EightScheduler : public Scheduler
    {
      public:
        std::string name() const override { return "eight"; }
        SchedulerDecision
        allocate() override
        {
            SchedulerDecision d;
            for (JobId id : view_->active_jobs()) {
                if (view_->remaining_iterations(id) > 0)
                    d.set(id, 8);
            }
            return d;
        }
    };
    EightScheduler scheduler;
    Simulator sim(trace, &scheduler);
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);

    double err = std::abs(result.jobs[0].finish_time - exec_finish) /
                 exec_finish;
    EXPECT_LT(err, 0.03) << "fluid " << result.jobs[0].finish_time
                         << " vs executor " << exec_finish;
}

TEST(Fidelity, ScriptedRescaleScheduleWithinThreePercent)
{
    Topology topo(TopologySpec::testbed_128());
    PerfModel perf(&topo);
    OverheadModel overhead{OverheadConfig{}};

    JobSpec spec;
    spec.id = 9;
    spec.model = DnnModel::kBert;
    spec.global_batch = 128;
    spec.iterations = 40000;
    spec.submit_time = 0.0;

    // A schedule of (time, gpu set) the elastic platform might issue.
    std::vector<std::pair<Time, std::vector<GpuCount>>> schedule = {
        {0.0, {0, 1}},
        {1800.0, {0, 1, 2, 3}},
        {3600.0, {0, 1, 2, 3, 8, 9, 10, 11}},
        {5400.0, {0, 1}},
        {5460.0, {16, 17}},  // migration
    };

    // Executor path.
    JobExecution exec(spec, &perf, &overhead);
    for (const auto &[time, gpus] : schedule) {
        if (exec.finished())
            break;
        exec.scale(time, gpus);
    }
    exec.advance(1e9);
    ASSERT_TRUE(exec.finished());

    // Fluid path: integrate throughput over the same intervals, with
    // the same overhead pauses.
    double remaining = static_cast<double>(spec.iterations);
    Time fluid_finish = 0.0;
    Time paused_until = 0.0;
    GpuCount prev = 0;
    for (std::size_t i = 0; i < schedule.size() && remaining > 0; ++i) {
        Time start = schedule[i].first;
        Time end = i + 1 < schedule.size() ? schedule[i + 1].first : 1e18;
        const auto &gpus = schedule[i].second;
        Time pause = overhead.scaling_seconds(
            spec.model, prev, static_cast<GpuCount>(gpus.size()));
        if (prev == static_cast<GpuCount>(gpus.size()))
            pause = overhead.migration_seconds(spec.model, prev);
        paused_until = start + pause;
        prev = static_cast<GpuCount>(gpus.size());
        double tpt = perf.throughput(spec.model, spec.global_batch,
                                     perf.shape_of(gpus));
        Time run_start = std::max(start, paused_until);
        if (run_start >= end)
            continue;
        double possible = tpt * (end - run_start);
        if (possible >= remaining) {
            fluid_finish = run_start + remaining / tpt;
            remaining = 0;
        } else {
            remaining -= possible;
        }
    }
    ASSERT_EQ(remaining, 0.0);

    double err =
        std::abs(exec.last_progress_time() - fluid_finish) / fluid_finish;
    EXPECT_LT(err, 0.03) << "executor " << exec.last_progress_time()
                         << " vs fluid " << fluid_finish;
}

TEST(EndToEnd, ElasticFlowBeatsEveryBaselineOnLargeTrace)
{
    Trace trace = TraceGenerator::generate(testbed_large_preset());
    std::map<std::string, double> ratio;
    for (const std::string &name : all_scheduler_names()) {
        auto scheduler = make_scheduler(name);
        Simulator sim(trace, scheduler.get());
        ratio[name] = sim.run().deadline_ratio();
    }
    for (const auto &[name, r] : ratio) {
        if (name == "elasticflow")
            continue;
        EXPECT_GT(ratio["elasticflow"], r) << name;
    }
    // Headline factors hold in spirit: EDF and Gandiva far behind,
    // deadline-aware Chronus the closest non-elastic policy.
    EXPECT_GT(ratio["elasticflow"] / ratio["edf"], 2.0);
    EXPECT_GT(ratio["elasticflow"] / ratio["gandiva"], 2.5);
    EXPECT_LT(ratio["elasticflow"] / ratio["pollux"], 3.0);
}

TEST(EndToEnd, AblationOrderingMatchesFig9)
{
    // EDF < EDF+one-ingredient <= ElasticFlow on a contended cluster.
    TraceGenConfig config = testbed_large_preset();
    config.num_jobs = 120;
    Trace trace = TraceGenerator::generate(config);
    std::map<std::string, double> ratio;
    for (const std::string name :
         {"edf", "edf+admission", "edf+elastic", "elasticflow"}) {
        auto scheduler = make_scheduler(name);
        Simulator sim(trace, scheduler.get());
        ratio[name] = sim.run().deadline_ratio();
    }
    EXPECT_GE(ratio["edf+admission"], ratio["edf"]);
    EXPECT_GT(ratio["edf+elastic"], ratio["edf"]);
    EXPECT_GE(ratio["elasticflow"], ratio["edf+admission"]);
    EXPECT_GE(ratio["elasticflow"] + 0.05, ratio["edf+elastic"]);
}

TEST(EndToEnd, DeterministicAcrossRuns)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto run_once = [&trace]() {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get());
        return sim.run();
    };
    RunResult a = run_once();
    RunResult b = run_once();
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].admitted, b.jobs[i].admitted) << i;
        EXPECT_EQ(a.jobs[i].finished, b.jobs[i].finished) << i;
        if (a.jobs[i].finished) {
            EXPECT_DOUBLE_EQ(a.jobs[i].finish_time,
                             b.jobs[i].finish_time)
                << i;
        }
    }
    EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(EndToEnd, BestEffortMixKeepsSloGuarantee)
{
    TraceGenConfig config = testbed_small_preset();
    config.num_jobs = 40;
    config.best_effort_fraction = 0.3;
    Trace trace = TraceGenerator::generate(config);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    for (const JobOutcome &job : result.jobs) {
        if (job.spec.kind == JobKind::kSlo && job.admitted) {
            EXPECT_TRUE(job.met_deadline()) << job.spec.id;
        }
        if (job.spec.kind == JobKind::kBestEffort) {
            EXPECT_TRUE(job.finished) << job.spec.id;
        }
    }
}

TEST(EndToEnd, ClusterPresetsRunQuickly)
{
    // Every Fig. 8(b) preset simulates end to end (smoke for the
    // bench); cap the job count for test speed.
    for (int preset : {1, 5, 9}) {
        TraceGenConfig config = cluster_preset(preset);
        config.num_jobs = std::min(config.num_jobs, 60);
        Trace trace = TraceGenerator::generate(config);
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get());
        RunResult result = sim.run();
        EXPECT_EQ(result.jobs.size(), trace.jobs.size()) << preset;
    }
}

}  // namespace
}  // namespace ef
