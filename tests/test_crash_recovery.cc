/**
 * @file
 * Crash-consistent control plane, end to end (DESIGN.md §12): a
 * simulator killed at ANY round commit and restarted with
 * durability.recover must finish with decisions and a
 * RunResult::state_hash bit-identical to an uninterrupted run. The
 * crash-at-every-round harness proves it exhaustively for scripted
 * kSchedCrash faults, through multi-crash chains, and under
 * rate-based crash soak.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "fault/fault.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

Trace
small_trace(std::uint64_t seed)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.seed = seed;
    return TraceGenerator::generate(gen);
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

std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    return dir;
}

RunResult
run_sim(const Trace &trace, const SimConfig &config)
{
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    return sim.run();
}

/**
 * prepare_durability() on a simulator whose incremental hash caches
 * were filled for its initial state first: a restore must reset them,
 * or the sealed sum would still describe the jobs as they were before
 * it. The restored state's hash must equal the full recompute.
 */
void
restore_over_filled_caches(Simulator &sim, const std::string &what)
{
    (void)sim.state_hash();
    const recover::Status st = sim.prepare_durability();
    ASSERT_TRUE(st.ok()) << what << ": " << st.to_string();
    EXPECT_EQ(sim.state_hash(), sim.recomputed_state_hash()) << what;
}

/**
 * Crash at round `n`, recover, and return the recovered result. The
 * scripted sched-crash entries live in the injector's armed-sched
 * list, which is deliberately outside state_fingerprint(), so the
 * crash script never perturbs hashed state relative to the baseline.
 */
RunResult
crash_then_recover(const Trace &trace, const SimConfig &base,
                   const std::string &dir, std::int64_t round)
{
    SimConfig crash_config = base;
    crash_config.durability.journal_dir = dir;
    crash_config.faults.script.push_back(sched_crash_at_round(round));
    {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), crash_config);
        sim.run();
        EXPECT_TRUE(sim.crashed()) << "round " << round;
    }
    SimConfig recover_config = crash_config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), recover_config);
    restore_over_filled_caches(sim, "round " + std::to_string(round));
    RunResult result = sim.run();
    EXPECT_FALSE(sim.crashed()) << "round " << round;
    EXPECT_EQ(sim.state_hash(), sim.recomputed_state_hash())
        << "round " << round;
    return result;
}

void
expect_identical(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.state_hash, b.state_hash) << what;
    EXPECT_EQ(a.state_hash_samples, b.state_hash_samples) << what;
    ASSERT_EQ(a.allocation_log.size(), b.allocation_log.size()) << what;
    for (std::size_t i = 0; i < a.allocation_log.size(); ++i) {
        EXPECT_EQ(a.allocation_log[i].time, b.allocation_log[i].time)
            << what << " entry " << i;
        EXPECT_EQ(a.allocation_log[i].job, b.allocation_log[i].job)
            << what << " entry " << i;
        EXPECT_EQ(a.allocation_log[i].gpus, b.allocation_log[i].gpus)
            << what << " entry " << i;
    }
    EXPECT_EQ(a.jobs.size(), b.jobs.size()) << what;
    EXPECT_EQ(a.makespan, b.makespan) << what;
}

/** Baseline with the fault injector present (so the configuration
 *  fingerprint matches the crashing runs) but no journal bound — a
 *  scripted sched-crash only fires at durable round commits, so this
 *  run never crashes regardless of the entry's target. */
SimConfig
scripted_base()
{
    SimConfig config;
    config.faults.script.push_back(sched_crash_at_round(1));
    return config;
}

/** scripted_base() minus the dummy entry: callers add real crashes. */
SimConfig
empty_script_base()
{
    return SimConfig{};
}

TEST(CrashRecovery, CrashAtEveryRoundIsBitIdentical)
{
    const Trace trace = small_trace(42);
    const SimConfig base = scripted_base();
    const RunResult baseline = run_sim(trace, base);
    ASSERT_GT(baseline.state_hash_samples, 2u);

    for (std::uint64_t n = 1; n <= baseline.state_hash_samples; ++n) {
        const std::string dir =
            fresh_dir("ef_crash_round_" + std::to_string(n));
        RunResult recovered = crash_then_recover(
            trace, empty_script_base(), dir,
            static_cast<std::int64_t>(n));
        expect_identical(baseline, recovered,
                         "crash at round " + std::to_string(n));
    }
}

TEST(CrashRecovery, MultiCrashChainRecovers)
{
    const Trace trace = small_trace(42);
    const SimConfig base = scripted_base();
    const RunResult baseline = run_sim(trace, base);
    const std::uint64_t rounds = baseline.state_hash_samples;
    ASSERT_GT(rounds, 4u);

    const std::string dir = fresh_dir("ef_crash_chain");
    SimConfig config = empty_script_base();
    config.durability.journal_dir = dir;
    // Three more crashes at increasing rounds; each recovery run hits
    // the next one until the script is exhausted.
    config.faults.script.push_back(sched_crash_at_round(2));
    config.faults.script.push_back(
        sched_crash_at_round(static_cast<std::int64_t>(rounds / 2)));
    config.faults.script.push_back(
        sched_crash_at_round(static_cast<std::int64_t>(rounds - 1)));

    int crashes = 0;
    RunResult final_result;
    for (int attempt = 0; attempt < 8; ++attempt) {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        restore_over_filled_caches(sim,
                                   "attempt " + std::to_string(attempt));
        final_result = sim.run();
        if (!sim.crashed())
            break;
        ++crashes;
        config.durability.recover = true;
    }
    EXPECT_EQ(crashes, 3);
    expect_identical(baseline, final_result, "multi-crash chain");
}

TEST(CrashRecovery, RateBasedCrashSoak)
{
    const Trace trace = small_trace(7);
    SimConfig base;
    base.faults.seed = 99;
    base.faults.sched_crash_prob = 0.25;
    const RunResult baseline = run_sim(trace, base);

    const std::string dir = fresh_dir("ef_crash_soak");
    SimConfig config = base;
    config.durability.journal_dir = dir;
    int crashes = 0;
    RunResult final_result;
    bool finished = false;
    // With p=0.25 per commit the expected chain is short; the bound
    // is generous so the test is deterministic-but-not-flaky under
    // any seed choice.
    for (int attempt = 0; attempt < 200; ++attempt) {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        restore_over_filled_caches(sim,
                                   "attempt " + std::to_string(attempt));
        final_result = sim.run();
        if (!sim.crashed()) {
            finished = true;
            break;
        }
        ++crashes;
        config.durability.recover = true;
    }
    ASSERT_TRUE(finished) << "soak never completed";
    EXPECT_GT(crashes, 0) << "p=0.25 soak never crashed once";
    expect_identical(baseline, final_result, "rate-based soak");
}

TEST(CrashRecovery, FrequentSnapshotsStillIdentical)
{
    const Trace trace = small_trace(42);
    const SimConfig base = scripted_base();
    const RunResult baseline = run_sim(trace, base);
    const std::uint64_t late = baseline.state_hash_samples - 1;

    const std::string dir = fresh_dir("ef_crash_snap1");
    SimConfig config = empty_script_base();
    config.durability.snapshot_every = 1;  // snapshot every round
    config.durability.journal_dir = dir;
    config.faults.script.push_back(
        sched_crash_at_round(static_cast<std::int64_t>(late)));
    {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }
    SimConfig recover_config = config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), recover_config);
    // A mid-run snapshot: the restored sealed sum differs from the
    // initial state's.
    restore_over_filled_caches(sim, "snapshot_every=1");
    RunResult recovered = sim.run();
    expect_identical(baseline, recovered, "snapshot_every=1");
}

TEST(CrashRecovery, ChurnWithClusterFaultsRecovers)
{
    // Crash recovery composed with the rest of the fault model: GPU
    // faults, RPC loss, and stragglers are all active, so the replay
    // must restore every RNG cursor exactly.
    const Trace trace = small_trace(21);
    SimConfig base;
    base.faults.seed = 5;
    base.faults.gpu_mtbf_s = 12.0 * kHour;
    base.faults.rpc_drop_prob = 0.01;
    base.faults.straggler_prob = 0.05;
    base.faults.ckpt_failure_prob = 0.02;
    const RunResult baseline = run_sim(trace, base);
    ASSERT_GT(baseline.state_hash_samples, 3u);

    const std::uint64_t rounds = baseline.state_hash_samples;
    for (std::uint64_t n : {std::uint64_t{1}, rounds / 2, rounds}) {
        if (n < 1)
            continue;
        const std::string dir =
            fresh_dir("ef_crash_churn_" + std::to_string(n));
        SimConfig config = base;
        RunResult recovered = crash_then_recover(
            trace, config, dir, static_cast<std::int64_t>(n));
        expect_identical(baseline, recovered,
                         "churn crash at round " + std::to_string(n));
    }
}

TEST(CrashRecovery, RecoverWithoutCrashIsIdempotent)
{
    // Recovering a journal whose run completed replays to the end and
    // finishes with the same result.
    const Trace trace = small_trace(42);
    const std::string dir = fresh_dir("ef_crash_complete");
    SimConfig config;
    config.durability.journal_dir = dir;
    const RunResult first = run_sim(trace, config);

    SimConfig recover_config = config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), recover_config);
    ASSERT_TRUE(sim.prepare_durability().ok());
    RunResult again = sim.run();
    expect_identical(first, again, "recover after completion");
}

TEST(CrashRecovery, MismatchedTraceIsTypedError)
{
    const Trace trace = small_trace(42);
    const std::string dir = fresh_dir("ef_crash_mismatch");
    SimConfig config;
    config.durability.journal_dir = dir;
    config.faults.script.push_back(sched_crash_at_round(2));
    {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }
    const Trace other = small_trace(43);
    SimConfig recover_config = config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(other, scheduler.get(), recover_config);
    recover::Status st = sim.prepare_durability();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code, recover::ErrorCode::kStateMismatch);
}

}  // namespace
}  // namespace ef
