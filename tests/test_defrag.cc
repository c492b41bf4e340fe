/**
 * @file
 * ef::defrag — search-based background defragmentation (DESIGN.md
 * §14). Covers the fragmentation metrics, the SA planner's objective /
 * budget contract, the snapshot codec round-trip, and the simulator
 * integration: a defrag-enabled run must double-run and
 * crash-recover to byte-identical state hashes, a zero budget must be
 * byte-identical to defrag disabled, and on a churn-heavy trace defrag
 * must reduce fragmentation without costing deadline satisfaction.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/fragmentation.h"
#include "cluster/placement.h"
#include "cluster/topology.h"
#include "defrag/defrag.h"
#include "fault/fault.h"
#include "recover/fields.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/perf_model.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

TEST(BuddyBlockFloor, LargestPowerOfTwoAtMostN)
{
    EXPECT_EQ(buddy_block_floor(0), 0);
    EXPECT_EQ(buddy_block_floor(1), 1);
    EXPECT_EQ(buddy_block_floor(2), 2);
    EXPECT_EQ(buddy_block_floor(3), 2);
    EXPECT_EQ(buddy_block_floor(5), 4);
    EXPECT_EQ(buddy_block_floor(7), 4);
    EXPECT_EQ(buddy_block_floor(8), 8);
}

TEST(FragmentationStats, EmptyClusterHasNoFragmentation)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.idle_gpus, 16);
    EXPECT_EQ(stats.buddy_usable_gpus, 16);
    EXPECT_DOUBLE_EQ(stats.buddy_external_frag, 0.0);
    EXPECT_EQ(stats.total_span_excess, 0);
}

TEST(FragmentationStats, OddHolesAreExternalFragmentation)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    // One 1-GPU job leaves a 7-GPU hole: only a 4-block is buddy-usable
    // there, so 3 of 15 idle GPUs are stranded.
    ASSERT_TRUE(pm.place(1, 1, PlacementStrategy::kBestFitCompact,
                         false).ok);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.idle_gpus, 15);
    EXPECT_EQ(stats.buddy_usable_gpus, 12);
    EXPECT_NEAR(stats.buddy_external_frag, 0.2, 1e-12);
    EXPECT_EQ(stats.largest_buddy_block, 8);
}

TEST(FragmentationStats, ScatteredJobsHaveSpanExcess)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    // kScatter round-robins across servers: a 4-GPU job lands 2+2
    // although it fits on one server (compact span 1, actual span 2).
    ASSERT_TRUE(pm.place(1, 4, PlacementStrategy::kScatter, false).ok);
    EXPECT_EQ(pm.server_span(1), 2);
    EXPECT_EQ(span_excess_of(pm, 1), 1);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.total_span_excess, 1);
    EXPECT_EQ(stats.jobs_with_span_excess, 1);
    EXPECT_EQ(stats.placed_jobs, 1);
}

/** Two 4-GPU jobs deliberately scattered 2+2 across both servers. */
void
scatter_two_jobs(PlacementManager *pm)
{
    ASSERT_TRUE(pm->place(1, 4, PlacementStrategy::kScatter, false).ok);
    ASSERT_TRUE(pm->place(2, 4, PlacementStrategy::kScatter, false).ok);
}

std::vector<defrag::DefragJob>
two_resnet_jobs()
{
    return {{1, DnnModel::kResNet50, 256},
            {2, DnnModel::kResNet50, 256}};
}

defrag::DefragConfig
test_config()
{
    defrag::DefragConfig config;
    config.enabled = true;
    config.budget_units_per_round = 16.0;
    // Always grant a round token in unit tests.
    config.governor = {1.0, 4.0, kTimeInfinity};
    return config;
}

TEST(Defragmenter, CompactsScatteredPlacement)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PerfModel perf(&topo);
    PlacementManager pm(&topo);
    scatter_two_jobs(&pm);
    ASSERT_EQ(fragmentation_stats(pm).total_span_excess, 2);

    defrag::Defragmenter defrag(test_config(), &topo, &perf);
    ASSERT_TRUE(defrag.try_begin_round(0.0));
    defrag::DefragPlan plan = defrag.plan_round(pm, two_resnet_jobs());
    ASSERT_FALSE(plan.moves.empty());
    EXPECT_LT(plan.objective_after, plan.objective_before);
    EXPECT_LE(plan.cost_units, 16.0 + 1e-9);

    pm.apply_moves(plan.moves);
    // Both jobs fit on one server each; the search must find that.
    EXPECT_EQ(fragmentation_stats(pm).total_span_excess, 0);
    EXPECT_EQ(defrag.moves_committed(), plan.moves.size());
    EXPECT_DOUBLE_EQ(defrag.budget_spent_units(), plan.cost_units);
}

TEST(Defragmenter, BudgetBoundsTheBatch)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PerfModel perf(&topo);
    PlacementManager pm(&topo);
    scatter_two_jobs(&pm);

    // Budget for at most one 4-worker job per round.
    defrag::DefragConfig config = test_config();
    config.budget_units_per_round = 4.0;
    defrag::Defragmenter defrag(config, &topo, &perf);

    ASSERT_TRUE(defrag.try_begin_round(0.0));
    defrag::DefragPlan plan = defrag.plan_round(pm, two_resnet_jobs());
    EXPECT_LE(plan.cost_units, 4.0 + 1e-9);
    EXPECT_LE(plan.moves.size(), 1u);
    if (!plan.moves.empty())
        pm.apply_moves(plan.moves);
    EXPECT_LE(fragmentation_stats(pm).total_span_excess, 2);
}

TEST(Defragmenter, GovernorPacesRounds)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PerfModel perf(&topo);
    defrag::DefragConfig config = test_config();
    // One round per 600 s, burst 1: two immediate requests, one token.
    config.governor = {1.0 / 600.0, 1.0, kTimeInfinity};
    defrag::Defragmenter defrag(config, &topo, &perf);
    EXPECT_TRUE(defrag.try_begin_round(0.0));
    EXPECT_FALSE(defrag.try_begin_round(1.0));
    EXPECT_TRUE(defrag.try_begin_round(700.0));
}

TEST(Defragmenter, CodecRoundTripsAllState)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PerfModel perf(&topo);
    PlacementManager pm(&topo);
    scatter_two_jobs(&pm);

    defrag::Defragmenter defrag(test_config(), &topo, &perf);
    ASSERT_TRUE(defrag.try_begin_round(0.0));
    defrag::DefragPlan plan = defrag.plan_round(pm, two_resnet_jobs());
    ASSERT_FALSE(plan.moves.empty());

    const std::string bytes = recover::encode(defrag);

    defrag::Defragmenter restored(test_config(), &topo, &perf);
    EXPECT_NE(recover::digest(restored), recover::digest(defrag));
    ASSERT_TRUE(recover::decode(bytes, restored).ok());
    EXPECT_EQ(recover::digest(restored), recover::digest(defrag));
    EXPECT_EQ(restored.rounds(), defrag.rounds());
    EXPECT_EQ(restored.moves_committed(), defrag.moves_committed());
    EXPECT_DOUBLE_EQ(restored.budget_spent_units(),
                     defrag.budget_spent_units());
    ASSERT_EQ(restored.last_batch().size(), defrag.last_batch().size());
}

// ---------------------------------------------------------------------
// Simulator integration on a churn-heavy trace.
// ---------------------------------------------------------------------

Trace
churn_trace()
{
    TraceGenConfig gen = churn_preset();
    gen.num_jobs = 60;  // keep the test fast; same statistics
    return TraceGenerator::generate(gen);
}

SimConfig
defrag_config()
{
    SimConfig config;
    config.defrag.enabled = true;
    return config;
}

RunResult
run_churn(const Trace &trace, const std::string &scheduler_name,
          const SimConfig &config)
{
    auto scheduler = make_scheduler(scheduler_name);
    Simulator sim(trace, scheduler.get(), config);
    return sim.run();
}

TEST(DefragSim, ImprovesChurnWithoutCostingDeadlines)
{
    Trace trace = churn_trace();
    // Tiresias is the greedy-only baseline: fixed-size placements,
    // no migration, so completions strand odd holes and spanning jobs.
    RunResult base = run_churn(trace, "tiresias", SimConfig{});
    RunResult with = run_churn(trace, "tiresias", defrag_config());

    EXPECT_GT(with.defrag_rounds, 0);
    EXPECT_GT(with.defrag_moves, 0);
    EXPECT_GT(with.defrag_budget_spent, 0.0);
    EXPECT_LE(average_fragmentation(with), average_fragmentation(base));
    EXPECT_LE(average_span_excess(with), average_span_excess(base));
    EXPECT_GE(with.deadline_ratio(), base.deadline_ratio());
}

TEST(DefragSim, DoubleRunsAreByteIdentical)
{
    Trace trace = churn_trace();
    RunResult a = run_churn(trace, "tiresias", defrag_config());
    RunResult b = run_churn(trace, "tiresias", defrag_config());
    EXPECT_GT(a.defrag_moves, 0);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.state_hash_samples, b.state_hash_samples);
    EXPECT_EQ(a.defrag_moves, b.defrag_moves);
    EXPECT_DOUBLE_EQ(a.defrag_budget_spent, b.defrag_budget_spent);
}

TEST(DefragSim, ZeroBudgetIsByteIdenticalToDisabled)
{
    Trace trace = churn_trace();
    SimConfig zero = defrag_config();
    zero.defrag.budget_units_per_round = 0.0;
    RunResult off = run_churn(trace, "tiresias", SimConfig{});
    RunResult zero_budget = run_churn(trace, "tiresias", zero);
    EXPECT_EQ(off.state_hash, zero_budget.state_hash);
    EXPECT_EQ(off.state_hash_samples, zero_budget.state_hash_samples);
    EXPECT_EQ(zero_budget.defrag_rounds, 0);
    EXPECT_EQ(zero_budget.defrag_moves, 0);
}

// ---------------------------------------------------------------------
// Crash recovery with an active defragmenter.
// ---------------------------------------------------------------------

std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    return dir;
}

FaultEvent
sched_crash_at_round(std::int64_t round)
{
    FaultEvent ev;
    ev.time = 0.0;
    ev.type = FaultType::kSchedCrash;
    ev.target = round;
    return ev;
}

TEST(DefragSim, CrashRecoverMidRepackReplaysToSameHash)
{
    Trace trace = churn_trace();
    // Baseline carries the same scripted fault config (outside the
    // hashed state) but no journal, so the crash never fires.
    SimConfig base = defrag_config();
    base.faults.script.push_back(sched_crash_at_round(1));
    RunResult clean = run_churn(trace, "tiresias", base);
    ASSERT_GT(clean.defrag_moves, 0);

    // Crash well after the first committed defrag rounds.
    const std::string dir = fresh_dir("defrag_crash");
    SimConfig crash = defrag_config();
    crash.durability.journal_dir = dir;
    crash.durability.snapshot_every = 20;
    crash.faults.script.push_back(sched_crash_at_round(60));
    {
        auto scheduler = make_scheduler("tiresias");
        Simulator sim(trace, scheduler.get(), crash);
        ASSERT_TRUE(sim.prepare_durability().ok());
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }

    SimConfig recover_config = crash;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("tiresias");
    Simulator sim(trace, scheduler.get(), recover_config);
    recover::Status st = sim.prepare_durability();
    ASSERT_TRUE(st.ok()) << st.to_string();
    RunResult recovered = sim.run();
    EXPECT_FALSE(sim.crashed());

    EXPECT_EQ(recovered.state_hash, clean.state_hash);
    EXPECT_EQ(recovered.state_hash_samples, clean.state_hash_samples);
    EXPECT_EQ(recovered.makespan, clean.makespan);
}

TEST(DefragSim, SnapshotModeMismatchIsRejected)
{
    Trace trace = churn_trace();
    const std::string dir = fresh_dir("defrag_mismatch");
    SimConfig crash = defrag_config();
    crash.durability.journal_dir = dir;
    crash.durability.snapshot_every = 10;
    crash.faults.script.push_back(sched_crash_at_round(40));
    {
        auto scheduler = make_scheduler("tiresias");
        Simulator sim(trace, scheduler.get(), crash);
        ASSERT_TRUE(sim.prepare_durability().ok());
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }

    // Recovering a defrag-enabled snapshot with defrag turned off must
    // fail loudly instead of silently dropping the repacker's state.
    SimConfig wrong;
    wrong.durability.journal_dir = dir;
    wrong.durability.recover = true;
    auto scheduler = make_scheduler("tiresias");
    Simulator sim(trace, scheduler.get(), wrong);
    recover::Status st = sim.prepare_durability();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code, recover::ErrorCode::kStateMismatch);
}

}  // namespace
}  // namespace ef
