/**
 * @file
 * Tests for the replay-based fidelity validator (§6.1): the fluid
 * simulator and the iteration-granular executor agree within the
 * paper's 3% bound across schedulers, workloads, and seeds.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "exec/replay.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

TEST(Replay, ElasticFlowTimelineWithinThreePercent)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    SimConfig config;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    RunResult result = sim.run();

    ReplayReport report =
        replay_and_compare(trace, result, config.overhead, config.noise);
    EXPECT_GT(report.compared, 10u);
    // The paper's 3% is the simulator's overall fidelity; per-job
    // error is dominated by iteration discretization, which can reach
    // a few percent of a very short job's JCT.
    EXPECT_LE(report.mean_relative_error, 0.03);
    EXPECT_LE(report.max_relative_error, 0.10)
        << "worst job error " << report.max_relative_error;
}

TEST(Replay, EverySchedulerWithinThreePercent)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 20;
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    for (const std::string &name : all_scheduler_names()) {
        SCOPED_TRACE(name);
        auto scheduler = make_scheduler(name);
        Simulator sim(trace, scheduler.get(), config);
        RunResult result = sim.run();
        ReplayReport report =
            replay_and_compare(trace, result, config.overhead, config.noise);
        EXPECT_LE(report.mean_relative_error, 0.03);
        EXPECT_LE(report.max_relative_error, 0.10);
        // Everything that finished in simulation also finishes in the
        // replay.
        std::size_t finished_unfailed = 0;
        for (const JobOutcome &job : result.jobs) {
            finished_unfailed +=
                (job.finished && job.failures_suffered == 0) ? 1 : 0;
        }
        EXPECT_EQ(report.compared, finished_unfailed);
    }
}

// The exact report of every scheduler on the canonical testbed trace.
// A change to the replay path must leave these bits alone; a change
// that moves them is a fidelity change and re-pins them on its own.
TEST(Replay, ReportIsPinned)
{
    struct Pin
    {
        const char *scheduler;
        std::size_t compared;
        std::uint64_t mean_bits;
        std::uint64_t max_bits;
    };
    const Pin kPins[] = {
        {"elasticflow", 20, 0x3f07c93c9f4e9f1cULL, 0x3f24fb8d597e3a80ULL},
        {"edf", 25, 0x3ed450043d749e0aULL, 0x3f01f3e4c041d127ULL},
        {"gandiva", 25, 0x3f03cbfb5e588053ULL, 0x3f1e8aabaa27f2cfULL},
        {"tiresias", 25, 0x3ee86c7c924fec8fULL, 0x3f10f049a99108e6ULL},
        {"themis", 25, 0x3eb1eb6d9336ff13ULL, 0x3ee07e8d1672e6a1ULL},
        {"chronus", 14, 0x3ea0a049efa1870dULL, 0x3edd1881633f51baULL},
        {"pollux", 25, 0x3f4f3d31c8a0aa3fULL, 0x3f93fd3ef25ce7b8ULL},
    };
    ASSERT_EQ(std::size(kPins), all_scheduler_names().size());
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    SimConfig config;
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(pin.scheduler);
        auto scheduler = make_scheduler(pin.scheduler);
        Simulator sim(trace, scheduler.get(), config);
        RunResult result = sim.run();
        ReplayReport report =
            replay_and_compare(trace, result, config.overhead, config.noise);
        EXPECT_EQ(report.compared, pin.compared);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(report.mean_relative_error),
                  pin.mean_bits)
            << report.mean_relative_error;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(report.max_relative_error),
                  pin.max_bits)
            << report.max_relative_error;
    }
}

TEST(Replay, NoisyRunsCompareFinishTimes)
{
    // With profiling noise each job runs faster or slower than its
    // profiled rate. The replay runs it at the same noisy rate, so the
    // noise-free bounds of ErrorSeedSweep hold here too.
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    SimConfig config;
    config.noise.throughput_error = 0.05;
    for (const std::string &name : all_scheduler_names()) {
        SCOPED_TRACE(name);
        auto scheduler = make_scheduler(name);
        Simulator sim(trace, scheduler.get(), config);
        RunResult result = sim.run();
        ReplayReport report =
            replay_and_compare(trace, result, config.overhead, config.noise);
        EXPECT_GT(report.compared, 10u);
        EXPECT_LE(report.mean_relative_error, 0.03);
        for (const ReplayJobResult &job : report.jobs)
            EXPECT_LT(job.relative_error, 0.10) << "job " << job.job;
    }
}

TEST(Replay, ErrorSeedSweep)
{
    SimConfig config;
    for (std::uint64_t seed : {21u, 22u, 23u}) {
        TraceGenConfig gen = testbed_small_preset();
        gen.seed = seed;
        gen.num_jobs = 15;
        Trace trace = TraceGenerator::generate(gen);
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        RunResult result = sim.run();
        ReplayReport report =
            replay_and_compare(trace, result, config.overhead, config.noise);
        EXPECT_LE(report.mean_relative_error, 0.03) << "seed " << seed;
        EXPECT_LE(report.max_relative_error, 0.10) << "seed " << seed;
        EXPECT_LE(report.mean_relative_error,
                  report.max_relative_error + 1e-12);
    }
}

TEST(Replay, OutOfOrderAllocationLogDies)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();
    auto &log = result.allocation_log;
    auto later = std::adjacent_find(
        log.begin(), log.end(),
        [](const AllocationEvent &a, const AllocationEvent &b) {
            return a.time < b.time;
        });
    ASSERT_NE(later, log.end());
    std::iter_swap(later, later + 1);
    EXPECT_DEATH(replay_and_compare(trace, result, OverheadConfig{},
                                    NoiseConfig{}),
                 "time order");
}

TEST(Replay, AllocationLogIsTimeOrderedAndComplete)
{
    Trace trace = TraceGenerator::generate(testbed_small_preset());
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    RunResult result = sim.run();

    EXPECT_FALSE(result.allocation_log.empty());
    Time prev = -1.0;
    for (const AllocationEvent &event : result.allocation_log) {
        EXPECT_GE(event.time, prev);
        prev = event.time;
    }
    // Every job that ran appears in the log at least once.
    std::set<JobId> seen;
    for (const AllocationEvent &event : result.allocation_log)
        seen.insert(event.job);
    for (const JobOutcome &job : result.jobs) {
        if (job.finished) {
            EXPECT_TRUE(seen.count(job.spec.id)) << job.spec.id;
        }
    }
}

}  // namespace
}  // namespace ef
