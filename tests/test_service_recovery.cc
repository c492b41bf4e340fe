/**
 * @file
 * Serve-mode crash recovery under pressure (DESIGN.md §12): a Service
 * killed with a non-empty admission queue and a mid-bucket governor
 * must recover to a state whose verdict stream is exactly-once — a
 * verdict whose journal record reached disk before the crash is never
 * re-delivered by the replay — while the starvation-horizon bound and
 * the round-hash chain both survive the crash. The crash windows
 * inside a base's commit are rebuilt from the files the service left
 * after consecutive submissions, and every base is checked against a
 * full encode of the live service. A journal record that is well
 * formed but would make submit() abort is a typed kBadRecord.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "recover/fields.h"
#include "recover/log.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "test_util.h"

namespace ef {
namespace {

using testutil::read_file;
using testutil::write_file;

std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    return dir;
}

serve::ServiceConfig
pressured_config()
{
    serve::ServiceConfig config;
    config.total_gpus = 16;
    config.queue_watermark = 8;
    // A slow bucket, so submissions pile up between rounds and the
    // governor is mid-refill at any interesting crash point.
    config.governor.rounds_per_second = 0.01;
    config.governor.burst = 1.0;
    config.governor.starvation_horizon_s = 300.0;
    return config;
}

std::vector<serve::Submission>
burst_stream(int n, std::uint64_t seed = 7)
{
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(16);
    stream_config.arrival_rate = 0.05;
    stream_config.seed = seed;
    serve::SyntheticStream stream(stream_config);
    std::vector<serve::Submission> subs;
    subs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        subs.push_back(stream.next());
    return subs;
}

TEST(ServiceRecovery, ExactlyOnceVerdictsUnderPressure)
{
    const int kSubs = 40;
    const int kCrashAfter = 17;  // crash mid-stream, queue non-empty
    const std::vector<serve::Submission> subs = burst_stream(kSubs);

    // Uninterrupted reference run.
    std::vector<serve::Decision> want;
    serve::Service reference(pressured_config());
    reference.set_decision_callback(
        [&](const serve::Decision &d) { want.push_back(d); });
    for (const serve::Submission &sub : subs)
        reference.submit(sub);
    reference.finish();
    const std::uint64_t want_hash = reference.state_hash();

    // Durable run killed after kCrashAfter submissions.
    const std::string dir = fresh_dir("ef_service_crash");
    std::vector<serve::Decision> before;
    std::size_t queue_at_crash = 0;
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service
                        .bind_durability(dir, /*snapshot_every=*/4,
                                         /*recover=*/false)
                        .ok());
        service.set_decision_callback(
            [&](const serve::Decision &d) { before.push_back(d); });
        for (int i = 0; i < kCrashAfter; ++i)
            service.submit(subs[static_cast<std::size_t>(i)]);
        queue_at_crash = service.queue_depth();
        // The Service object dies here with its queue still loaded —
        // the on-disk journal is all that survives.
    }
    ASSERT_GT(queue_at_crash, 0u) << "crash point lost its pressure";

    // Recover into a fresh Service and finish the stream.
    std::vector<serve::Decision> after;
    serve::Service recovered(pressured_config());
    recovered.set_decision_callback(
        [&](const serve::Decision &d) { after.push_back(d); });
    ASSERT_TRUE(recovered
                    .bind_durability(dir, /*snapshot_every=*/4,
                                     /*recover=*/true)
                    .ok());
    EXPECT_EQ(recovered.queue_depth(), queue_at_crash);
    for (int i = kCrashAfter; i < kSubs; ++i)
        recovered.submit(subs[static_cast<std::size_t>(i)]);
    recovered.finish();

    // Exactly-once: pre-crash verdicts and post-recovery verdicts
    // concatenate to precisely the uninterrupted stream — nothing
    // re-issued, nothing lost.
    ASSERT_EQ(before.size() + after.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const serve::Decision &got = i < before.size()
                                         ? before[i]
                                         : after[i - before.size()];
        EXPECT_EQ(got.id, want[i].id) << "verdict " << i;
        EXPECT_EQ(got.verdict, want[i].verdict) << "verdict " << i;
        EXPECT_EQ(got.decide_time, want[i].decide_time)
            << "verdict " << i;
    }
    EXPECT_EQ(recovered.state_hash(), want_hash);
    EXPECT_EQ(recovered.stats().submitted,
              reference.stats().submitted);
    EXPECT_EQ(recovered.stats().rounds, reference.stats().rounds);

    // Starvation bound survives the crash: no queued submission
    // waited past the horizon for its verdict.
    const Time horizon =
        pressured_config().governor.starvation_horizon_s;
    for (std::size_t i = 0; i < after.size(); ++i) {
        EXPECT_LE(after[i].decide_time - after[i].submit_time,
                  horizon + 1e-9)
            << "verdict " << i;
    }
}

TEST(ServiceRecovery, CrashAtEverySubmissionPrefix)
{
    const int kSubs = 24;
    const std::vector<serve::Submission> subs = burst_stream(kSubs, 11);

    serve::Service reference(pressured_config());
    for (const serve::Submission &sub : subs)
        reference.submit(sub);
    reference.finish();

    for (int crash = 1; crash < kSubs; crash += 3) {
        const std::string dir =
            fresh_dir("ef_service_prefix_" + std::to_string(crash));
        {
            serve::Service service(pressured_config());
            ASSERT_TRUE(
                service.bind_durability(dir, 4, false).ok());
            for (int i = 0; i < crash; ++i)
                service.submit(subs[static_cast<std::size_t>(i)]);
        }
        serve::Service recovered(pressured_config());
        ASSERT_TRUE(recovered.bind_durability(dir, 4, true).ok());
        for (int i = crash; i < kSubs; ++i)
            recovered.submit(subs[static_cast<std::size_t>(i)]);
        recovered.finish();
        EXPECT_EQ(recovered.state_hash(), reference.state_hash())
            << "crash after submission " << crash;
    }
}

TEST(ServiceRecovery, RecoveryIsReadOnlyUntilRebind)
{
    // Crashing again mid-recovery must be harmless: DurableLog::load
    // never mutates the directory, so a second recovery sees the same
    // bytes.
    const std::vector<serve::Submission> subs = burst_stream(20, 3);
    const std::string dir = fresh_dir("ef_service_recrash");
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service.bind_durability(dir, 4, false).ok());
        for (int i = 0; i < 12; ++i)
            service.submit(subs[static_cast<std::size_t>(i)]);
    }
    serve::Service first(pressured_config());
    ASSERT_TRUE(first.bind_durability(dir, 4, true).ok());
    const std::uint64_t hash_first = first.state_hash();

    // "first" dies right after recovery (before any new input); its
    // rebind rewrote the snapshot, but the recovered state is the
    // same, so a second recovery lands in the same place.
    serve::Service second(pressured_config());
    ASSERT_TRUE(second.bind_durability(dir, 4, true).ok());
    EXPECT_EQ(second.state_hash(), hash_first);
    EXPECT_EQ(second.queue_depth(), first.queue_depth());
}

TEST(ServiceRecovery, MismatchedConfigIsTypedError)
{
    const std::vector<serve::Submission> subs = burst_stream(8, 5);
    const std::string dir = fresh_dir("ef_service_mismatch");
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service.bind_durability(dir, 4, false).ok());
        for (const serve::Submission &sub : subs)
            service.submit(sub);
    }
    serve::ServiceConfig other = pressured_config();
    other.total_gpus = 32;
    serve::Service recovered(other);
    recover::Status st = recovered.bind_durability(dir, 4, true);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code, recover::ErrorCode::kStateMismatch);
}

// A directory written before the state hash became a word hash holds
// round commits and a snapshot hash chained with FNV-1a; replaying it
// would abort as a divergence. Both files carry their version, and an
// older one is a typed kBadVersion.
TEST(ServiceRecovery, OldFormatVersionsAreTypedErrors)
{
    const std::vector<serve::Submission> subs = burst_stream(24, 5);
    const std::string dir = fresh_dir("ef_service_old_version");
    {
        serve::Service service(pressured_config());
        ASSERT_TRUE(service.bind_durability(dir, 4, false).ok());
        for (const serve::Submission &sub : subs)
            service.submit(sub);
    }
    const std::string snapshot_path = recover::DurableLog::snapshot_path(dir);
    const std::string journal_path = recover::DurableLog::journal_path(dir);
    const std::string snapshot = read_file(snapshot_path);
    const std::string journal = read_file(journal_path);
    ASSERT_GT(snapshot.size(), 8u);
    ASSERT_GT(journal.size(), 8u);

    // The previous journal version next to a current snapshot, then the
    // previous snapshot version next to a current journal.
    const struct
    {
        const char *name;
        const std::string &path;
        char version;
    } cases[] = {{"journal v4", journal_path, 4},
                 {"snapshot v6", snapshot_path, 6}};
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        write_file(snapshot_path, snapshot);
        write_file(journal_path, journal);
        std::string old = read_file(c.path);
        old[4] = c.version;  // little-endian u32 version after the magic
        write_file(c.path, old);
        serve::Service recovered(pressured_config());
        const recover::Status st = recovered.bind_durability(dir, 4, true);
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.code, recover::ErrorCode::kBadVersion)
            << st.to_string();
    }

    // The files as written still recover.
    write_file(snapshot_path, snapshot);
    write_file(journal_path, journal);
    serve::Service recovered(pressured_config());
    EXPECT_TRUE(recovered.bind_durability(dir, 4, true).ok());
}

/** The snapshot and journal a durable service leaves after each
 *  prefix of @p subs: [n] = after n submissions. */
std::vector<std::pair<std::string, std::string>>
disks_after_each(const std::vector<serve::Submission> &subs,
                 const std::string &name)
{
    const std::string dir = fresh_dir(name);
    std::vector<std::pair<std::string, std::string>> disks;
    serve::Service service(pressured_config());
    EXPECT_TRUE(service.bind_durability(dir, 4, false).ok());
    for (std::size_t n = 0;; ++n) {
        disks.emplace_back(
            read_file(recover::DurableLog::snapshot_path(dir)),
            read_file(recover::DurableLog::journal_path(dir)));
        if (n == subs.size())
            return disks;
        service.submit(subs[n]);
    }
}

/**
 * Each submission that committed a new base, with the files of the
 * submission before it: the new snapshot next to the old journal is
 * the disk a crash leaves right after the base's rename (and, with
 * @p tmp, a replacement journal written but not renamed). Recovery
 * must resume after that submission and finish with the uninterrupted
 * run's hash.
 */
void
check_base_windows(bool tmp)
{
    const std::vector<serve::Submission> subs = burst_stream(80, 19);
    serve::Service reference(pressured_config());
    for (const serve::Submission &sub : subs)
        reference.submit(sub);
    reference.finish();

    const auto disks = disks_after_each(subs, "ef_service_windows");
    int windows = 0;
    for (std::size_t n = 1; n < disks.size(); ++n) {
        if (disks[n].first == disks[n - 1].first)
            continue;  // no base committed by submission n
        const std::string dir =
            fresh_dir("ef_service_window_" + std::to_string(n));
        std::filesystem::create_directories(dir);
        write_file(recover::DurableLog::snapshot_path(dir), disks[n].first);
        write_file(recover::DurableLog::journal_path(dir),
                   disks[n - 1].second);
        if (tmp) {
            write_file(recover::DurableLog::journal_path(dir) + ".tmp",
                       disks[n].second.substr(0, disks[n].second.size() / 2));
        }
        serve::Service recovered(pressured_config());
        const recover::Status st = recovered.bind_durability(dir, 4, true);
        ASSERT_TRUE(st.ok()) << "base at submission " << n << ": "
                             << st.to_string();
        for (std::size_t i = n; i < subs.size(); ++i)
            recovered.submit(subs[i]);
        recovered.finish();
        EXPECT_EQ(recovered.state_hash(), reference.state_hash())
            << "base at submission " << n;
        ++windows;
    }
    EXPECT_GT(windows, 2);
}

TEST(ServiceCrashWindow, AfterBaseRename)
{
    check_base_windows(false);
}

TEST(ServiceCrashWindow, BeforeJournalRename)
{
    check_base_windows(true);
}

// At every base a service soak commits, restoring the directory gives
// what a full encode of the live service gives.
TEST(ServiceRecovery, BasesRestoreWhatAFullEncodeDoes)
{
    FaultConfig faults_config;
    faults_config.rpc_drop_prob = 0.02;
    faults_config.script.push_back(
        {1000.0, FaultType::kArrivalStorm, -1, 1000.0, 6.0});
    FaultInjector faults(faults_config);
    serve::ServiceConfig config;
    config.total_gpus = 16;
    config.degrade_infeasible = true;
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(16);
    stream_config.arrival_rate = 0.02;
    serve::SyntheticStream stream(stream_config, &faults);

    const std::string dir = fresh_dir("ef_service_oracle");
    serve::Service service(config, &faults);
    ASSERT_TRUE(service.bind_durability(dir, 8, false).ok());
    std::string last = read_file(recover::DurableLog::snapshot_path(dir));
    int checked = 0;
    for (int i = 0; i < 300; ++i) {
        service.submit(stream.next());
        std::string now = read_file(recover::DurableLog::snapshot_path(dir));
        if (now == last)
            continue;
        last = std::move(now);
        const std::string copy = fresh_dir("ef_service_oracle_copy");
        std::filesystem::remove_all(copy);
        std::filesystem::copy(dir, copy);
        FaultInjector restored_faults(faults_config);
        serve::Service restored(config, &restored_faults);
        ASSERT_TRUE(restored.bind_durability(copy, 8, true).ok());
        EXPECT_EQ(restored.state_hash(), service.state_hash()) << i;
        EXPECT_EQ(recover::encode(restored), recover::encode(service)) << i;
        ++checked;
    }
    EXPECT_GT(checked, 10);
}

/**
 * A journal whose checksums hold can still carry an input submit() or
 * advance_to() would abort on: a submission before the clock, one for
 * an id that is already pending, or a clock going backwards. Each such
 * record, appended after a run through the library's own writer, must
 * end recovery in a kBadRecord naming it.
 */
TEST(ServiceRecovery, ForgedReplayInputsAreBadRecords)
{
    const std::vector<serve::Submission> subs = burst_stream(6, 5);
    const serve::Submission &last = subs.back();
    serve::Submission early = subs.front();
    early.spec.id = 1000;
    const struct
    {
        const char *what;  ///< substring of the diagnostic
        recover::RecordKind kind;
        std::string body;
    } cases[] = {
        {"submission before the clock", recover::RecordKind::kSubmission,
         recover::encode(early)},
        {"pending or active id", recover::RecordKind::kSubmission,
         recover::encode(last)},
        {"advance before the clock", recover::RecordKind::kAdvance,
         recover::encode(early.spec.submit_time, false)},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.what);
        const std::string dir = fresh_dir("ef_service_forged");
        {
            serve::Service service(pressured_config());
            std::vector<JobId> decided;
            service.set_decision_callback(
                [&](const serve::Decision &d) { decided.push_back(d.id); });
            ASSERT_TRUE(service.bind_durability(dir, 64, false).ok());
            for (const serve::Submission &sub : subs)
                service.submit(sub);
            ASSERT_LT(early.spec.submit_time, service.now());
            ASSERT_EQ(std::count(decided.begin(), decided.end(),
                                 last.spec.id),
                      0)
                << "the last submission must still be queued";
        }
        std::string snapshot;
        recover::JournalContents tail;
        ASSERT_TRUE(recover::DurableLog::load(dir, &snapshot, &tail).ok());
        recover::JournalWriter writer;
        ASSERT_TRUE(writer
                        .reopen(recover::DurableLog::journal_path(dir),
                                tail.valid_bytes)
                        .ok());
        ASSERT_TRUE(writer.append(c.kind, c.body).ok());
        ASSERT_TRUE(writer.commit().ok());
        writer.close();

        serve::Service recovered(pressured_config());
        const recover::Status st = recovered.bind_durability(dir, 64, true);
        EXPECT_EQ(st.code, recover::ErrorCode::kBadRecord) << st.to_string();
        EXPECT_EQ(st.record, static_cast<std::int64_t>(tail.records.size()));
        EXPECT_NE(st.message.find(c.what), std::string::npos) << st.message;
    }
}

}  // namespace
}  // namespace ef
