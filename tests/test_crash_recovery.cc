/**
 * @file
 * Crash-consistent control plane, end to end (DESIGN.md §12): a
 * simulator killed at ANY round commit and restarted with
 * durability.recover must finish with decisions and a
 * RunResult::state_hash bit-identical to an uninterrupted run. The
 * crash-at-every-round harness proves it exhaustively for scripted
 * kSchedCrash faults, through multi-crash chains, and under
 * rate-based crash soak. The crash windows inside a checkpoint's
 * commit are rebuilt from the files of runs crashed one round apart,
 * and the snapshot chain is checked against a full encode of the same
 * state.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "recover/fields.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::read_file;
using testutil::write_file;

Trace
small_trace(std::uint64_t seed)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.seed = seed;
    return TraceGenerator::generate(gen);
}

/** Every deadline-aware policy counts replan failures on it. */
Trace
testbed_large_trace()
{
    return TraceGenerator::generate(testbed_large_preset());
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
run_sim(const Trace &trace, const SimConfig &config,
        const std::string &scheduler_name = "elasticflow")
{
    auto scheduler = make_scheduler(scheduler_name);
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
                   const std::string &dir, std::int64_t round,
                   const std::string &scheduler_name = "elasticflow")
{
    SimConfig crash_config = base;
    crash_config.durability.journal_dir = dir;
    crash_config.faults.script.push_back(sched_crash_at_round(round));
    {
        auto scheduler = make_scheduler(scheduler_name);
        Simulator sim(trace, scheduler.get(), crash_config);
        sim.run();
        EXPECT_TRUE(sim.crashed()) << "round " << round;
    }
    SimConfig recover_config = crash_config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler(scheduler_name);
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
    // must restore every RNG cursor exactly. Throughput noise too: a
    // resume draws each job's noise factor again from the config.
    const Trace trace = small_trace(21);
    SimConfig base;
    base.noise.throughput_error = 0.02;
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

TEST(CrashRecovery, RecoveredJobsShareTheirShapeCurve)
{
    // A checkpoint carries no curves, so a restored job row never
    // decodes one: it takes its shape's curve from the trace, shared
    // with every job of that shape and with curve_for().
    const Trace trace = small_trace(42);
    const std::string dir = fresh_dir("ef_crash_shared_curves");
    SimConfig config;
    config.durability.journal_dir = dir;
    config.durability.snapshot_every = 4;
    run_sim(trace, config);
    const std::string files =
        read_file(recover::DurableLog::snapshot_path(dir)) +
        read_file(recover::DurableLog::journal_path(dir));

    SimConfig recover_config = config;
    recover_config.durability.recover = true;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), recover_config);
    ASSERT_TRUE(sim.prepare_durability().ok());
    auto fresh_scheduler = make_scheduler("elasticflow");
    const Simulator fresh(trace, fresh_scheduler.get(), SimConfig{});
    int shared = 0;
    for (const JobSpec &a : trace.jobs) {
        EXPECT_EQ(files.find(recover::encode(sim.curve(a.id))),
                  std::string::npos)
            << "job " << a.id << "'s curve is in the checkpoint";
        EXPECT_EQ(sim.curve(a.id).table(), fresh.curve(a.id).table());
        EXPECT_EQ(&sim.curve(a.id).table(), &sim.curve_for(a).table());
        for (const JobSpec &b : trace.jobs) {
            if (a.id < b.id && a.model == b.model &&
                a.global_batch == b.global_batch) {
                EXPECT_EQ(&sim.curve(a.id).table(),
                          &sim.curve(b.id).table());
                ++shared;
            }
        }
    }
    EXPECT_GT(shared, 0);
}

// The replan-failure count is carried across rounds and reported at
// the end of the run: a recovered run must report the failures counted
// before its snapshot too, under every policy that counts them.
TEST(CrashRecovery, ReplanFailuresSurviveRecovery)
{
    const Trace trace = testbed_large_trace();
    for (const char *name : {"elasticflow", "chronus", "edf+elastic"}) {
        SCOPED_TRACE(name);
        SimConfig base = scripted_base();
        base.durability.snapshot_every = 4;
        const RunResult baseline = run_sim(trace, base, name);
        ASSERT_GT(baseline.state_hash_samples, 8u);
        ASSERT_GT(baseline.replan_failures, 0);
        const std::uint64_t late = baseline.state_hash_samples - 2;

        SimConfig config = empty_script_base();
        config.durability.snapshot_every = 4;
        const RunResult recovered = crash_then_recover(
            trace, config, fresh_dir(std::string("ef_crash_fails_") + name),
            static_cast<std::int64_t>(late), name);
        EXPECT_EQ(recovered.replan_failures, baseline.replan_failures);
        EXPECT_EQ(recovered.state_hash, baseline.state_hash);
    }
}

// Every policy's cross-round state is in its recovery blob: a run
// crashed late on the large testbed (where gandiva time-slices, so its
// rotation decides who runs) and recovered ends in the same state.
TEST(CrashRecovery, EveryPolicyRecoversALateCrash)
{
    const Trace trace = testbed_large_trace();
    for (const std::string &name : all_scheduler_names()) {
        SCOPED_TRACE(name);
        SimConfig base = scripted_base();
        base.durability.snapshot_every = 4;
        const RunResult baseline = run_sim(trace, base, name);
        ASSERT_GT(baseline.state_hash_samples, 8u);
        // Late, but while the cluster is still oversubscribed: in the
        // last few rounds gandiva has nothing left to rotate.
        const std::uint64_t late = baseline.state_hash_samples * 9 / 10;

        SimConfig config = empty_script_base();
        config.durability.snapshot_every = 4;
        const RunResult recovered = crash_then_recover(
            trace, config, fresh_dir("ef_crash_late_" + name),
            static_cast<std::int64_t>(late), name);
        EXPECT_EQ(recovered.state_hash, baseline.state_hash);
    }
}

// A blob without gandiva's rotation (the base scheduler's format, the
// replan-failure count alone) is refused, never half-restored.
TEST(CrashRecovery, GandivaRefusesABlobWithoutItsRotation)
{
    auto gandiva = make_scheduler("gandiva");
    std::string blob;
    gandiva->encode_recovery_state(&blob);
    EXPECT_TRUE(gandiva->decode_recovery_state(blob));
    EXPECT_FALSE(gandiva->decode_recovery_state(recover::encode(3)));
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
    SimConfig recover_config = config;
    recover_config.durability.recover = true;
    const auto resume = [](const Trace &input, const SimConfig &with) {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(input, scheduler.get(), with);
        return sim.prepare_durability();
    };

    // A resume rebuilds each job's spec, curve and noise factor from
    // the trace and the config, so a change to any spec field, or to
    // the noise setting, must be refused.
    const JobSpec &job = trace.jobs[3];
    std::vector<std::pair<std::string, Trace>> inputs;
    inputs.emplace_back("another trace", small_trace(43));
    inputs.emplace_back("model", trace);
    inputs.back().second.jobs[3].model = job.model == DnnModel::kVgg16
                                             ? DnnModel::kResNet50
                                             : DnnModel::kVgg16;
    inputs.emplace_back("global batch", trace);
    inputs.back().second.jobs[3].global_batch = 2 * job.global_batch;
    inputs.emplace_back("kind", trace);
    inputs.back().second.jobs[3].kind = job.kind == JobKind::kSlo
                                            ? JobKind::kSoftDeadline
                                            : JobKind::kSlo;
    inputs.emplace_back("user", trace);
    inputs.back().second.jobs[3].user = job.user + "-other";
    for (const auto &[name, input] : inputs) {
        EXPECT_EQ(resume(input, recover_config).code,
                  recover::ErrorCode::kStateMismatch)
            << name;
    }
    SimConfig noisy = recover_config;
    noisy.noise.throughput_error = 0.02;
    EXPECT_EQ(resume(trace, noisy).code,
              recover::ErrorCode::kStateMismatch)
        << "noise";
    // So must a resume without the fault injector the run was written
    // with: the snapshot holds its RNG cursors.
    SimConfig no_faults = recover_config;
    no_faults.faults.script.clear();
    EXPECT_EQ(resume(trace, no_faults).code,
              recover::ErrorCode::kStateMismatch)
        << "no fault injector";

    // The trace and config the run was written with still resume.
    EXPECT_TRUE(resume(trace, recover_config).ok());
}

/** Crash testbed-small (seed 42) at round 3 under @p dir and return
 *  the config that recovers it, for tests that edit the journal
 *  first. */
SimConfig
crashed_journal(const std::string &dir)
{
    SimConfig config = empty_script_base();
    config.durability.journal_dir = dir;
    config.faults.script.push_back(sched_crash_at_round(3));
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(small_trace(42), scheduler.get(), config);
    sim.run();
    EXPECT_TRUE(sim.crashed());
    config.durability.recover = true;
    return config;
}

recover::Status
recover_status(const SimConfig &config)
{
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(small_trace(42), scheduler.get(), config);
    return sim.prepare_durability();
}

// A simulator journal holds its head and round commits only. Any other
// kind is a journal this simulator did not write, even when its
// framing and checksum are intact.
TEST(CrashRecovery, ForeignRecordKindIsTypedError)
{
    const std::string dir = fresh_dir("ef_crash_foreign_kind");
    const SimConfig config = crashed_journal(dir);
    ASSERT_TRUE(recover_status(config).ok());

    const std::string path = recover::DurableLog::journal_path(dir);
    recover::JournalWriter writer;
    ASSERT_TRUE(writer.reopen(path, read_file(path).size()).ok());
    ASSERT_TRUE(writer
                    .append(recover::RecordKind::kSubmission,
                            recover::encode(JobId{1}, 0.0))
                    .ok());
    ASSERT_TRUE(writer.commit().ok());
    writer.close();

    const recover::Status st = recover_status(config);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code, recover::ErrorCode::kBadRecord) << st.to_string();
}

// Journal version 3 could hold record kinds that no longer exist,
// version 4's round commits carry state hashes chained with FNV-1a,
// which re-execution would call a divergence, and version 5's head
// carries job rows with their spec and curve. The reader must refuse
// such a file as a whole rather than replay it.
TEST(CrashRecovery, OldJournalVersionIsTypedError)
{
    const std::string dir = fresh_dir("ef_crash_old_version");
    const SimConfig config = crashed_journal(dir);
    const std::string path = recover::DurableLog::journal_path(dir);
    const std::string current = read_file(path);
    ASSERT_GT(current.size(), 8u);
    for (char version : {3, 4, 5, 6}) {
        SCOPED_TRACE(static_cast<int>(version));
        std::string journal = current;
        journal[4] = version;  // little-endian u32 version after the magic
        write_file(path, journal);

        const recover::Status st = recover_status(config);
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code, recover::ErrorCode::kBadVersion)
            << st.to_string();
    }
}

// --- crash windows inside a checkpoint's commit ------------------------

/** The files a crash left in a journal directory. */
struct Disk
{
    std::string snapshot;
    std::string journal;
    /** A journal replacement written but not renamed; empty = none. */
    std::string journal_tmp;
};

Disk
disk_of(const std::string &dir)
{
    return Disk{read_file(recover::DurableLog::snapshot_path(dir)),
                read_file(recover::DurableLog::journal_path(dir)), ""};
}

/** A fresh directory holding @p disk. */
std::string
dir_holding(const std::string &name, const Disk &disk)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    write_file(recover::DurableLog::snapshot_path(dir), disk.snapshot);
    write_file(recover::DurableLog::journal_path(dir), disk.journal);
    if (!disk.journal_tmp.empty()) {
        write_file(recover::DurableLog::journal_path(dir) + ".tmp",
                   disk.journal_tmp);
    }
    return dir;
}

/** testbed-small (seed 1) journaled under @p dir, with scheduler
 *  crashes at @p rounds; a checkpoint every 16 rounds. */
SimConfig
window_config(const std::string &dir, std::initializer_list<int> rounds)
{
    SimConfig config = empty_script_base();
    config.durability.journal_dir = dir;
    for (int round : rounds)
        config.faults.script.push_back(sched_crash_at_round(round));
    return config;
}

/** Run @p config — recovering first when @p recover — until a run
 *  ends without crashing; that run's result. */
RunResult
run_until_done(const Trace &trace, SimConfig config, bool recover)
{
    config.durability.recover = recover;
    RunResult result;
    for (int attempt = 0; attempt < 8; ++attempt) {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        const recover::Status st = sim.prepare_durability();
        EXPECT_TRUE(st.ok()) << st.to_string();
        if (!st.ok())
            return result;
        result = sim.run();
        if (!sim.crashed())
            return result;
        config.durability.recover = true;
    }
    ADD_FAILURE() << "the run never finished";
    return result;
}

/** The files of a fresh testbed-small run crashed at @p rounds[0]. */
Disk
crashed_at(const Trace &trace, const std::string &name,
           std::initializer_list<int> rounds)
{
    const std::string dir = fresh_dir(name);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), window_config(dir, rounds));
    sim.run();
    EXPECT_TRUE(sim.crashed());
    return disk_of(dir);
}

// The run crashed at round 17 wrote its round-16 checkpoint; the one
// crashed at round 16 did not. The first one's chain next to the
// second one's journal is the disk a crash leaves right after the
// checkpoint's segment landed and before its journal replaced the old
// one: the uncommitted segment must be ignored.
TEST(CrashWindow, AfterSegmentAppend)
{
    const Trace trace = small_trace(1);
    const RunResult baseline = run_sim(trace, scripted_base());
    Disk disk = crashed_at(trace, "ef_window_seg16", {16});
    disk.snapshot = crashed_at(trace, "ef_window_seg17", {17}).snapshot;
    const std::string dir = dir_holding("ef_window_seg", disk);
    expect_identical(baseline,
                     run_until_done(trace, window_config(dir, {16}), true),
                     "crash after the segment append");
}

// The same, with the journal's replacement written in full but not yet
// renamed over it: the temp file is ignored.
TEST(CrashWindow, BeforeJournalRename)
{
    const Trace trace = small_trace(1);
    const RunResult baseline = run_sim(trace, scripted_base());
    Disk disk = crashed_at(trace, "ef_window_tmp16", {16});
    const Disk after = crashed_at(trace, "ef_window_tmp17", {17});
    disk.snapshot = after.snapshot;
    disk.journal_tmp = after.journal;
    const std::string dir = dir_holding("ef_window_tmp", disk);
    expect_identical(baseline,
                     run_until_done(trace, window_config(dir, {16}), true),
                     "crash before the journal rename");
}

// Recovering from the round-17 crash writes a new base, and the run
// then dies at round 19. That base next to the journal of the round-17
// crash is the disk a crash leaves right after the base's rename: the
// newer base subsumes the older journal.
TEST(CrashWindow, AfterBaseRename)
{
    const Trace trace = small_trace(1);
    const RunResult baseline = run_sim(trace, scripted_base());
    const std::string dir = fresh_dir("ef_window_base17");
    {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), window_config(dir, {17, 19}));
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }
    Disk disk = disk_of(dir);
    {
        SimConfig config = window_config(dir, {17, 19});
        config.durability.recover = true;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        sim.run();
        ASSERT_TRUE(sim.crashed());
    }
    disk.snapshot = disk_of(dir).snapshot;
    const std::string window = dir_holding("ef_window_base", disk);
    expect_identical(
        baseline,
        run_until_done(trace, window_config(window, {17, 19}), true),
        "crash after the base rename");
}

// --- the chain against the full encode ---------------------------------

/** A churn run: GPU faults and RPC loss, with a checkpoint every 8
 *  rounds. */
SimConfig
churn_config(const std::string &dir, std::int64_t crash_round)
{
    SimConfig config;
    config.faults.seed = 3;
    config.faults.gpu_mtbf_s = 2.0 * kDay;
    config.faults.rpc_drop_prob = 0.02;
    config.faults.script.push_back(sched_crash_at_round(crash_round));
    config.durability.journal_dir = dir;
    config.durability.snapshot_every = 8;
    return config;
}

/** Relocations ElasticFlow's repack made across @p result's jobs. */
int
total_migrations(const RunResult &result)
{
    int total = 0;
    for (const JobOutcome &job : result.jobs)
        total += job.migrations;
    return total;
}

/** Encode and decode of @p sim's whole state into @p into. */
void
copy_by_full_encode(Simulator &sim, Simulator &into)
{
    const std::string bytes = recover::encode(sim);
    ASSERT_TRUE(recover::decode(bytes, into).ok());
}

// At every cadence point of the churn run, a simulator restored from
// base + segments + head must hold what decoding a full encode of the
// same state gives: the same state hashes (cached and recomputed), the
// same allocation log and outcome rows — the same bytes, in fact.
TEST(CrashRecovery, ChainRestoresWhatAFullEncodeDoes)
{
    TraceGenConfig gen = churn_preset();
    gen.num_jobs = 60;
    const Trace trace = TraceGenerator::generate(gen);
    const RunResult whole = run_sim(trace, churn_config("", 1));
    ASSERT_GT(whole.state_hash_samples, 40u);
    // The repack migrates during the run, so some crash below lands
    // with migrations both behind it and ahead of it.
    const int migrations = total_migrations(whole);
    ASSERT_GT(migrations, 0);

    int checked = 0;
    int between_migrations = 0;
    for (std::uint64_t round = 9; round < whole.state_hash_samples;
         round += 8) {
        const std::string what = "round " + std::to_string(round);
        const std::string dir = fresh_dir("ef_chain_oracle");
        const SimConfig config =
            churn_config(dir, static_cast<std::int64_t>(round));
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get(), config);
        const int before = total_migrations(sim.run());
        ASSERT_TRUE(sim.crashed()) << what;
        between_migrations += before > 0 && before < migrations ? 1 : 0;
        // One more checkpoint, of the state the crash left in memory,
        // on top of the cadence ones.
        ASSERT_TRUE(sim.write_snapshot_now().ok()) << what;

        SimConfig recover_config = config;
        recover_config.durability.recover = true;
        auto chain_scheduler = make_scheduler("elasticflow");
        Simulator chain(trace, chain_scheduler.get(), recover_config);
        const recover::Status st = chain.prepare_durability();
        ASSERT_TRUE(st.ok()) << what << ": " << st.to_string();

        auto full_scheduler = make_scheduler("elasticflow");
        Simulator full(trace, full_scheduler.get(), churn_config("", 1));
        copy_by_full_encode(sim, full);

        EXPECT_EQ(chain.state_hash(), full.state_hash()) << what;
        EXPECT_EQ(chain.state_hash(), sim.state_hash()) << what;
        EXPECT_EQ(chain.recomputed_state_hash(),
                  full.recomputed_state_hash())
            << what;
        EXPECT_EQ(recover::encode(chain), recover::encode(full)) << what;
        EXPECT_EQ(recover::encode(chain), recover::encode(sim)) << what;
        ++checked;
    }
    EXPECT_GT(checked, 4);
    EXPECT_GT(between_migrations, 0);
}

}  // namespace
}  // namespace ef
