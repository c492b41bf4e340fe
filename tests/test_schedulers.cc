/**
 * @file
 * Behavioural tests for the baseline schedulers, each run through the
 * simulator on hand-crafted traces that isolate the policy's defining
 * trait.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::TraceBuilder;

SimConfig
no_overhead()
{
    SimConfig config;
    config.overhead.enabled = false;
    return config;
}

TEST(Factory, MakesEveryScheduler)
{
    for (const std::string name :
         {"elasticflow", "edf", "edf+admission", "edf+elastic",
          "gandiva", "tiresias", "themis", "chronus", "pollux"}) {
        auto scheduler = make_scheduler(name);
        ASSERT_NE(scheduler, nullptr) << name;
        EXPECT_EQ(scheduler->name(), name);
    }
    EXPECT_DEATH(make_scheduler("nope"), "unknown scheduler");
}

TEST(SchedulerDecision, LastWriteWins)
{
    SchedulerDecision decision;
    decision.set(7, 4);
    decision.set(3, 2);
    decision.set(7, 8);
    decision.set(3, 0);
    EXPECT_EQ(decision.of(7), 8);
    EXPECT_EQ(decision.of(3), 0);
    EXPECT_EQ(decision.entries().size(), 2u);
}

TEST(SchedulerDecision, AbsentJobGetsZero)
{
    SchedulerDecision decision;
    EXPECT_EQ(decision.of(1), 0);
    decision.set(2, 4);
    decision.set(5, 1);
    for (JobId absent : {JobId{0}, JobId{1}, JobId{3}, JobId{6}})
        EXPECT_EQ(decision.of(absent), 0) << absent;
    EXPECT_EQ(decision.of(2), 4);
    EXPECT_EQ(decision.of(5), 1);
}

TEST(SchedulerDecision, SetOrderDoesNotMatter)
{
    const std::vector<SchedulerDecision::Entry> want = {
        {1, 2}, {4, 8}, {9, 0}, {12, 1}, {30, 16}};
    std::vector<SchedulerDecision::Entry> order = want;
    int orders = 0;
    do {
        SchedulerDecision decision;
        for (const auto &[id, g] : order)
            decision.set(id, g);
        EXPECT_EQ(decision.entries(), want);
        ++orders;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(orders, 120);
}

TEST(Factory, ComparisonOrderMatchesPaper)
{
    const auto &names = all_scheduler_names();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names.front(), "elasticflow");
}

TEST(Edf, HeadOfLineJobGetsMaxUsefulGpus)
{
    // One job alone: EDF gives it as many GPUs as still help.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kVgg16, 256, 2, 0.0, kHour, 1.2)
                      .build();
    auto scheduler = make_scheduler("edf");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);
    // It ran well above its requested 2 GPUs: the finish time beats
    // the standalone duration by a wide margin.
    EXPECT_LT(result.jobs[0].jct(), 0.6 * kHour);
}

TEST(Edf, Figure3PathologySerializesJobs)
{
    // Two identical jobs, deadlines 1.0x and 1.17x of standalone
    // duration. EDF gives the whole useful share to the earlier
    // deadline, so the second job starts late and misses, even though
    // running both in parallel on smaller shares meets both —
    // exactly the paper's Fig. 3.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kVgg16, 256, 8, 0.0, 2.0 * kHour, 1.0)
            .slo(DnnModel::kVgg16, 256, 8, 1.0, 2.0 * kHour, 1.17)
            .build();
    {
        auto edf = make_scheduler("edf");
        Simulator sim(trace, edf.get(), no_overhead());
        RunResult result = sim.run();
        EXPECT_TRUE(result.jobs[0].met_deadline());
        EXPECT_FALSE(result.jobs[1].met_deadline());
    }
    {
        auto ef = make_scheduler("elasticflow");
        Simulator sim(trace, ef.get(), no_overhead());
        RunResult result = sim.run();
        EXPECT_TRUE(result.jobs[0].met_deadline());
        EXPECT_TRUE(result.jobs[1].met_deadline());
    }
}

TEST(Gandiva, UsesRequestedGpusAndQueuesFifo)
{
    // Two 32-GPU jobs on a 32-GPU cluster: strictly one at a time, in
    // submission order.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kResNet50, 256, 32, 0.0, kHour, 1.5)
            .slo(DnnModel::kResNet50, 256, 32, 10.0, kHour, 1.5)
            .build();
    auto scheduler = make_scheduler("gandiva");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);
    ASSERT_TRUE(result.jobs[1].finished);
    EXPECT_LT(result.jobs[0].finish_time, result.jobs[1].finish_time);
    // Never elastic: peak allocation equals the request.
    EXPECT_LE(result.used_gpus.values()[0], 32.0);
}

TEST(Tiresias, LeastAttainedServiceWinsPreemption)
{
    // A long-running job has accumulated service; a short newcomer
    // with zero attained service preempts it on a full cluster and
    // stays ahead (its total GPU-time keeps it in a higher queue).
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kBert, 128, 32, 0.0, 20.0 * kHour, 3.0)
            .slo(DnnModel::kBert, 128, 2, 2.0 * kHour, kHour, 3.0)
            .build();
    auto scheduler = make_scheduler("tiresias");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[1].finished);
    // The short newcomer finishes long before the hog.
    EXPECT_LT(result.jobs[1].finish_time, result.jobs[0].finish_time);
    // And did not wait for the hog to finish first.
    EXPECT_LT(result.jobs[1].jct(), 2.0 * kHour);
}

TEST(Themis, StarvedJobEventuallyReclaimsLease)
{
    // Two jobs, one cluster-filling: the waiting job's finish-time
    // fairness degrades until it reclaims GPUs.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kInceptionV3, 128, 32, 0.0, 10.0 * kHour, 3.0)
            .slo(DnnModel::kInceptionV3, 128, 32, 60.0, kHour, 3.0)
            .build();
    auto scheduler = make_scheduler("themis");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[1].finished);
    EXPECT_LT(result.jobs[1].finish_time, result.jobs[0].finish_time);
}

TEST(Chronus, AdmitsOnlyFixedSizeFeasibleJobs)
{
    // Job 2's deadline requires more than its fixed 1-GPU request can
    // deliver — Chronus drops it, ElasticFlow (elastic) admits it.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kResNet50, 256, 1, 0.0, 4.0 * kHour, 0.6)
            .build();
    {
        auto chronus = make_scheduler("chronus");
        Simulator sim(trace, chronus.get(), no_overhead());
        RunResult result = sim.run();
        EXPECT_FALSE(result.jobs[0].admitted);
    }
    {
        auto ef = make_scheduler("elasticflow");
        Simulator sim(trace, ef.get(), no_overhead());
        RunResult result = sim.run();
        EXPECT_TRUE(result.jobs[0].admitted);
        EXPECT_TRUE(result.jobs[0].met_deadline());
    }
}

TEST(Chronus, MeetsDeadlinesItAdmits)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto scheduler = make_scheduler("chronus");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    for (const JobOutcome &job : result.jobs) {
        if (job.admitted && job.spec.kind == JobKind::kSlo) {
            EXPECT_TRUE(job.met_deadline()) << "job " << job.spec.id;
        }
    }
}

TEST(Pollux, ElasticallyUsesIdleGpus)
{
    // A single 1-GPU-requested job: Pollux ignores the request and
    // scales it out.
    Trace trace = TraceBuilder(TopologySpec::testbed_32())
                      .slo(DnnModel::kBert, 64, 1, 0.0, kHour, 1.0)
                      .build();
    auto scheduler = make_scheduler("pollux");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    ASSERT_TRUE(result.jobs[0].finished);
    EXPECT_LT(result.jobs[0].jct(), 0.5 * kHour);
}

TEST(Pollux, SharesProportionallyFairly)
{
    // Two identical jobs on 32 GPUs: neither should monopolize.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kResNet50, 256, 8, 0.0, kHour, 2.0)
            .slo(DnnModel::kResNet50, 256, 8, 1.0, kHour, 2.0)
            .build();
    auto scheduler = make_scheduler("pollux");
    Simulator sim(trace, scheduler.get(), no_overhead());
    RunResult result = sim.run();
    // Near-identical completion times (same share).
    EXPECT_LT(std::abs(result.jobs[0].jct() - result.jobs[1].jct()),
              0.2 * result.jobs[0].jct());
}

TEST(EdfVariants, AdmissionControlDropsInfeasible)
{
    // Hopeless deadline: 0.3x standalone on a saturated request.
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kVgg16, 64, 32, 0.0, 10.0 * kHour, 0.3)
            .build();
    auto plain = make_scheduler("edf");
    auto admission = make_scheduler("edf+admission");
    Simulator sim_plain(trace, plain.get(), no_overhead());
    Simulator sim_admission(trace, admission.get(), no_overhead());
    EXPECT_TRUE(sim_plain.run().jobs[0].admitted);
    EXPECT_FALSE(sim_admission.run().jobs[0].admitted);
}

TEST(EdfVariants, ElasticVariantBeatsPlainOnFig3)
{
    Trace trace =
        TraceBuilder(TopologySpec::testbed_32())
            .slo(DnnModel::kVgg16, 256, 8, 0.0, 2.0 * kHour, 1.0)
            .slo(DnnModel::kVgg16, 256, 8, 1.0, 2.0 * kHour, 1.17)
            .build();
    auto elastic = make_scheduler("edf+elastic");
    Simulator sim(trace, elastic.get(), no_overhead());
    RunResult result = sim.run();
    EXPECT_TRUE(result.jobs[0].met_deadline());
    EXPECT_TRUE(result.jobs[1].met_deadline());
}

}  // namespace
}  // namespace ef
