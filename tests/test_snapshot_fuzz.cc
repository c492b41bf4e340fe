/**
 * @file
 * Snapshot-chain fuzz (DESIGN.md §12). Seeded mutations of real
 * Simulator (churn + faults) and serve::Service checkpoints —
 * byte flips, truncations and inflated counts in a base, a history
 * segment or a journal head — are written back through the library,
 * so every checksum is valid and the section decoders see the mutated
 * bytes. Structural damage to the chain itself — truncated, missing,
 * duplicated and reordered segments, a head naming another generation
 * or segment count, a flipped byte anywhere — is written raw. Recovery
 * must return OK or a typed error, never abort. Two targeted cases
 * check that GPU-table corruptions the placement layer would abort on
 * (a GPU both down and owned, an owned count that differs from the
 * job's gpus) are rejected as kBadRecord.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "recover/journal.h"
#include "recover/log.h"
#include "recover/snapshot.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using testutil::read_file;
using testutil::write_file;

using recover::ChainTip;
using recover::DurableLog;
using recover::ErrorCode;
using recover::Status;

/** An empty directory (its snapshot and journal removed). */
std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** A checkpoint directory taken apart. */
struct Parts
{
    std::uint64_t generation = 1;
    std::string base;
    std::vector<std::string> segments;
    /** Live state of the head; the head itself is absent without a
     *  journal. */
    std::string head;
    bool journal = true;
    std::vector<recover::JournalRecord> records;  ///< after the head
};

Parts
read_parts(const std::string &dir)
{
    std::string checkpoint;
    recover::JournalContents contents;
    EXPECT_TRUE(DurableLog::load(dir, &checkpoint, &contents).ok());
    recover::Chain chain;
    std::string_view head;
    EXPECT_TRUE(recover::unpack_checkpoint(checkpoint, &chain, &head).ok());
    Parts p;
    p.generation = chain.tip.generation;
    p.base = chain.base;
    p.segments.assign(chain.segments.begin(), chain.segments.end());
    p.head = head;
    p.records = std::move(contents.records);
    return p;
}

/** Body of a head record naming @p tip, followed by @p live. */
std::string
head_body(const ChainTip &tip, const std::string &live)
{
    recover::Encoder enc;
    enc.u64(tip.generation);
    enc.u64(tip.segments);
    enc.u64(tip.bytes);
    enc.u64(tip.checksum);
    return enc.take() + live;
}

/**
 * @p p written to a fresh directory through the library, so every
 * checksum is valid; @p edit may change the tip the head names.
 */
std::string
dir_with(const Parts &p, const std::function<void(ChainTip *)> &edit = {})
{
    const std::string dir = fresh_dir("fuzz_target");
    const std::string snap = DurableLog::snapshot_path(dir);
    ChainTip tip;
    EXPECT_TRUE(recover::write_base_file(snap, p.generation, p.base, &tip)
                    .ok());
    for (const std::string &segment : p.segments)
        EXPECT_TRUE(recover::append_segment_file(snap, segment, &tip).ok());
    if (p.journal) {
        if (edit)
            edit(&tip);
        recover::JournalWriter journal;
        EXPECT_TRUE(journal
                        .restart(DurableLog::journal_path(dir),
                                 head_body(tip, p.head))
                        .ok());
        for (const recover::JournalRecord &rec : p.records)
            EXPECT_TRUE(journal.append(rec.kind, rec.body).ok());
        EXPECT_TRUE(journal.commit().ok());
    }
    return dir;
}

/** A base-only directory holding @p payload. */
std::string
dir_with(const std::string &payload)
{
    Parts p;
    p.base = payload;
    p.journal = false;
    return dir_with(p);
}

bool
typed(const Status &st)
{
    return st.code == ErrorCode::kTruncated ||
           st.code == ErrorCode::kChecksumMismatch ||
           st.code == ErrorCode::kBadRecord ||
           st.code == ErrorCode::kStateMismatch;
}

/**
 * Recover from 3 * @p per_kind seeded mutations of @p payload (byte
 * flips, truncations, 8-byte windows overwritten with inflated
 * counts): each must end in OK or a typed payload error, and some must
 * be rejected.
 */
void
fuzz(const std::string &payload, std::uint64_t seed, int per_kind,
     const std::function<Status(const std::string &)> &recover)
{
    Rng rng(seed);
    const auto pos = [&](std::size_t size) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
    };
    int rejected = 0;
    for (int i = 0; i < per_kind; ++i) {
        std::string flipped = payload;
        for (int f = static_cast<int>(rng.uniform_int(1, 4)); f > 0; --f) {
            flipped[pos(flipped.size())] ^=
                static_cast<char>(rng.uniform_int(1, 255));
        }
        std::string inflated = payload;
        const std::uint64_t big[] = {payload.size(), UINT64_C(1) << 40,
                                     ~UINT64_C(0)};
        const std::uint64_t value =
            big[static_cast<std::size_t>(rng.uniform_int(0, 2))];
        const std::size_t at = pos(payload.size() - 8);
        for (int b = 0; b < 8; ++b)
            inflated[at + b] = static_cast<char>(value >> (8 * b));
        for (const std::string &mutant :
             {flipped, payload.substr(0, pos(payload.size())), inflated}) {
            const Status st = recover(mutant);
            EXPECT_TRUE(st.ok() || st.code == ErrorCode::kBadRecord ||
                        st.code == ErrorCode::kStateMismatch)
                << "mutation " << i << ": " << st.to_string();
            if (testing::Test::HasFailure())
                return;
            rejected += st.ok() ? 0 : 1;
        }
    }
    EXPECT_GT(rejected, 0);
}

// --- Simulator: churn + GPU faults + RPC drops -----------------------

Trace
churn_trace()
{
    TraceGenConfig gen = churn_preset();
    gen.num_jobs = 60;
    return TraceGenerator::generate(gen);
}

/** Journaled churn run: a checkpoint every @p every rounds, scheduler
 *  crashes at rounds 85 and 87, after the repack's first migrations
 *  and before its last. */
SimConfig
churn_config(const std::string &dir, bool recover, std::uint64_t every = 40)
{
    SimConfig config;
    config.faults.seed = 3;
    config.faults.gpu_mtbf_s = 2.0 * kDay;
    config.faults.rpc_drop_prob = 0.02;
    for (std::int64_t round : {85, 87}) {
        FaultEvent crash;
        crash.type = FaultType::kSchedCrash;
        crash.target = round;
        config.faults.script.push_back(crash);
    }
    config.durability.journal_dir = dir;
    config.durability.snapshot_every = every;
    config.durability.recover = recover;
    return config;
}

/** prepare_durability() of a recovering churn run over @p dir. */
Status
recover_simulator_dir(const std::string &dir, std::uint64_t every = 40)
{
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(churn_trace(), scheduler.get(),
                  churn_config(dir, true, every));
    return sim.prepare_durability();
}

Status
recover_simulator(const std::string &payload)
{
    return recover_simulator_dir(dir_with(payload));
}

/** A churn run with a checkpoint every @p every rounds, crashed at
 *  round 85 — and, with @p resumed, recovered and crashed again at 87.
 *  ElasticFlow's repack has migrated jobs before the first crash, so
 *  the checkpoints hold relocated placements. */
std::string
crashed_churn_dir(const std::string &name, std::uint64_t every,
                  bool resumed)
{
    const std::string dir = fresh_dir(name);
    for (bool recover : {false, true}) {
        if (recover && !resumed)
            break;
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(churn_trace(), scheduler.get(),
                      churn_config(dir, recover, every));
        int migrations = 0;
        for (const JobOutcome &job : sim.run().jobs)
            migrations += job.migrations;
        EXPECT_TRUE(sim.crashed());
        EXPECT_GT(migrations, 0);
    }
    return dir;
}

/** A mid-run churn base (placed jobs, faulted GPUs, migrated jobs):
 *  the one the recovery from the round-85 crash wrote. */
const std::string &
simulator_payload()
{
    static const std::string payload =
        read_parts(crashed_churn_dir("fuzz_sim_source", 40, true)).base;
    return payload;
}

/** Checkpoint cadence of the churn chain below. */
constexpr std::uint64_t kChainEvery = 16;

/** A churn chain: the base, five segments and a head, then the journal
 *  records of rounds 81 to 85. */
const Parts &
simulator_chain()
{
    static const Parts parts =
        read_parts(crashed_churn_dir("fuzz_chain_source", kChainEvery,
                                     false));
    return parts;
}

/** Little-endian u64 at @p at. */
std::uint64_t
word(const std::string &p, std::size_t at)
{
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b)
        v = v << 8 | static_cast<unsigned char>(p[at + b]);
    return v;
}

/**
 * Offset of the placement's owner column — a 64 count, then 64 owners
 * (i64), then the availability column (a 64 count, 64 u8 flags) and
 * the server column (an 8 count, 8 u8 flags) — found by shape: owners
 * are -1 or a job id, flags are 0/1, and some GPU is owned.
 */
constexpr std::size_t kUp = 8 + 64 * 8;  // availability column
constexpr std::size_t kServers = kUp + 8 + 64;

std::size_t
gpu_table(const std::string &p)
{
    std::vector<std::size_t> hits;
    for (std::size_t at = 0; at + kServers + 8 + 8 <= p.size(); ++at) {
        bool shaped = word(p, at) == 64 && word(p, at + kUp) == 64 &&
                      word(p, at + kServers) == 8;
        bool owned = false;
        for (std::size_t g = 0; g < 64 && shaped; ++g) {
            const std::uint64_t owner = word(p, at + 8 + 8 * g);
            shaped = (owner == ~UINT64_C(0) || owner < 1000) &&
                     static_cast<unsigned char>(p[at + kUp + 8 + g]) <= 1;
            owned = owned || owner < 1000;
        }
        for (std::size_t s = 0; s < 8 && shaped; ++s) {
            shaped = static_cast<unsigned char>(
                         p[at + kServers + 8 + s]) <= 1;
        }
        if (shaped && owned)
            hits.push_back(at);
    }
    EXPECT_EQ(hits.size(), 1u);
    return hits.empty() ? 0 : hits.front();
}

/** Offset of the availability flag of the GPU whose owner is at
 *  @p owner in @p table. */
std::size_t
up_flag(std::size_t table, std::size_t owner)
{
    return table + kUp + 8 + (owner - table - 8) / 8;
}

/** Offset of the owner of the first owned GPU of @p table, or, given
 *  @p other, of the first one whose owner differs from @p other's. */
std::size_t
owned_row(const std::string &p, std::size_t table, std::size_t other = 0)
{
    std::size_t g = 0;
    while (g < 64 && (p[table + 8 + 8 * g] == '\xff' ||
                      (other != 0 &&
                       p.compare(table + 8 + 8 * g, 8, p, other, 8) == 0)))
        ++g;
    EXPECT_LT(g, 64u);
    return table + 8 + 8 * std::min<std::size_t>(g, 63);
}

TEST(SnapshotFuzz, SimulatorPayloads)
{
    EXPECT_TRUE(recover_simulator(simulator_payload()).ok());
    fuzz(simulator_payload(), 101, 150, recover_simulator);
}

TEST(SnapshotFuzz, InconsistentGpuTableIsBadRecord)
{
    const std::string &payload = simulator_payload();
    const std::size_t table = gpu_table(payload);
    const std::size_t owned = owned_row(payload, table);

    std::string down = payload;
    down[up_flag(table, owned)] = 0;  // an owned GPU marked down
    EXPECT_EQ(recover_simulator(down).code, ErrorCode::kBadRecord);

    // Hand a GPU of another job to the first owner: that job now holds
    // one GPU more than its gpus count says (the cluster is full at
    // the crash, so there is no free GPU to hand it).
    std::string extra = payload;
    extra.replace(owned_row(payload, table, owned), 8,
                  payload.substr(owned, 8));
    EXPECT_EQ(recover_simulator(extra).code, ErrorCode::kBadRecord);
}

// --- the chain itself --------------------------------------------------

/** The frames of a snapshot file after its 8-byte header. */
std::vector<std::string>
frames(const std::string &file)
{
    std::vector<std::string> out;
    for (std::size_t at = 8; at + 16 <= file.size();) {
        recover::Decoder dec(file);
        std::uint64_t len = 0;
        dec.skip(at);
        dec.u64(&len);
        out.push_back(file.substr(at, 16 + len));
        at += 16 + len;
    }
    return out;
}

std::string
join(const std::string &file, const std::vector<std::string> &parts)
{
    std::string out = file.substr(0, 8);
    for (const std::string &part : parts)
        out += part;
    return out;
}

TEST(SnapshotFuzz, ChainDamageIsTyped)
{
    const Parts &chain = simulator_chain();
    ASSERT_EQ(chain.segments.size(), 5u);
    ASSERT_FALSE(chain.head.empty());
    ASSERT_FALSE(chain.records.empty());
    const std::string dir = dir_with(chain);
    const auto recover = [](const std::string &d) {
        return recover_simulator_dir(d, kChainEvery);
    };
    ASSERT_TRUE(recover(dir).ok());
    const std::string snap = read_file(DurableLog::snapshot_path(dir));
    const std::string journal = read_file(DurableLog::journal_path(dir));
    const std::vector<std::string> f = frames(snap);
    ASSERT_EQ(f.size(), 6u);

    /** Recovery from @p snapshot_bytes next to the intact journal. */
    const auto with_snapshot = [&](const std::string &snapshot_bytes) {
        const std::string d = fresh_dir("fuzz_chain_damage");
        write_file(DurableLog::snapshot_path(d), snapshot_bytes);
        write_file(DurableLog::journal_path(d), journal);
        return recover(d);
    };
    const auto expect = [&](const std::string &snapshot_bytes,
                            ErrorCode code, const std::string &what) {
        const Status st = with_snapshot(snapshot_bytes);
        EXPECT_EQ(st.code, code) << what << ": " << st.to_string();
    };

    // Truncated: the last counted segment cut short, and the file cut
    // inside a frame header.
    expect(snap.substr(0, snap.size() - 10), ErrorCode::kTruncated,
           "truncated last segment");
    expect(snap.substr(0, snap.size() - f.back().size() + 5),
           ErrorCode::kTruncated, "truncated frame header");
    // Missing: a middle segment, or the last one.
    std::vector<std::string> g = f;
    g.erase(g.begin() + 2);
    expect(join(snap, g), ErrorCode::kBadRecord, "missing segment 2");
    g = f;
    g.pop_back();
    expect(join(snap, g), ErrorCode::kTruncated, "missing last segment");
    // Duplicated and reordered segments.
    g = f;
    g.insert(g.begin() + 3, f[2]);
    expect(join(snap, g), ErrorCode::kBadRecord, "duplicated segment 2");
    g = f;
    std::swap(g[1], g[2]);
    expect(join(snap, g), ErrorCode::kBadRecord, "swapped segments");
    // A torn segment past the head's count is one a crash left
    // uncommitted: ignored.
    const std::string torn = f[3].substr(0, f[3].size() / 2);
    EXPECT_TRUE(with_snapshot(snap + torn).ok()) << "torn uncommitted";

    // A flipped byte anywhere in a segment (frame header included).
    Rng rng(303);
    for (int i = 0; i < 60; ++i) {
        const std::size_t at = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(f[0].size()) + 8,
            static_cast<std::int64_t>(snap.size()) - 1));
        std::string flipped = snap;
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniform_int(1, 255)));
        const Status st = with_snapshot(flipped);
        EXPECT_TRUE(!st.ok() && typed(st))
            << "flip at " << at << ": " << st.to_string();
    }
    // ... and in the head record (its frame, kind byte or body).
    const std::size_t head_end =
        8 + 12 + head_body(ChainTip{}, chain.head).size() + 1;
    for (int i = 0; i < 60; ++i) {
        const std::size_t at = static_cast<std::size_t>(rng.uniform_int(
            8, static_cast<std::int64_t>(head_end) - 1));
        std::string flipped = journal;
        flipped[at] = static_cast<char>(
            flipped[at] ^ static_cast<char>(rng.uniform_int(1, 255)));
        const std::string d = fresh_dir("fuzz_head_flip");
        write_file(DurableLog::snapshot_path(d), snap);
        write_file(DurableLog::journal_path(d), flipped);
        const Status st = recover(d);
        EXPECT_TRUE(!st.ok() && typed(st))
            << "head flip at " << at << ": " << st.to_string();
    }

    // A head naming another generation or segment count, with a valid
    // checksum. An older generation is the crash window between a
    // base's rename and the journal's replacement: the base subsumes
    // the journal.
    const auto head_says = [&](const std::function<void(ChainTip *)> &edit) {
        return recover(dir_with(chain, edit));
    };
    EXPECT_EQ(head_says([](ChainTip *t) { ++t->generation; }).code,
              ErrorCode::kBadRecord);
    EXPECT_EQ(head_says([](ChainTip *t) { ++t->segments; }).code,
              ErrorCode::kTruncated);
    EXPECT_EQ(head_says([](ChainTip *t) { --t->segments; }).code,
              ErrorCode::kBadRecord);
    EXPECT_EQ(head_says([](ChainTip *t) { t->segments = 0; }).code,
              ErrorCode::kBadRecord);
    Parts newer = chain;
    newer.generation = 2;
    EXPECT_TRUE(recover(dir_with(newer, [](ChainTip *t) {
                    t->generation = 1;
                })).ok());
}

TEST(SnapshotFuzz, SegmentAndHeadPayloads)
{
    const Parts &chain = simulator_chain();
    const auto recover = [](const Parts &p) {
        return recover_simulator_dir(dir_with(p), kChainEvery);
    };
    // Each segment body, and the head's live state, mutated in turn.
    for (std::size_t k = 0; k <= chain.segments.size(); ++k) {
        const bool head = k == chain.segments.size();
        fuzz(head ? chain.head : chain.segments[k], 404 + k, 20,
             [&](const std::string &mutant) {
                 Parts p = chain;
                 (head ? p.head : p.segments[k]) = mutant;
                 return recover(p);
             });
        if (testing::Test::HasFailure())
            return;
    }
}

// --- serve::Service with an arrival storm and RPC loss ---------------

FaultConfig
storm_faults()
{
    FaultConfig faults;
    faults.rpc_drop_prob = 0.02;
    faults.script.push_back(
        {1000.0, FaultType::kArrivalStorm, -1, 1000.0, 6.0});
    return faults;
}

serve::ServiceConfig
service_config()
{
    serve::ServiceConfig config;
    config.total_gpus = 16;
    config.degrade_infeasible = true;
    return config;
}

Status
recover_service(const std::string &payload)
{
    FaultInjector faults(storm_faults());
    serve::Service service(service_config(), &faults);
    return service.bind_durability(dir_with(payload), 8, true);
}

TEST(SnapshotFuzz, ServicePayloads)
{
    const std::string dir = fresh_dir("fuzz_service_source");
    FaultInjector faults(storm_faults());
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(16);
    stream_config.arrival_rate = 0.02;
    serve::SyntheticStream stream(stream_config, &faults);
    serve::Service service(service_config(), &faults);
    ASSERT_TRUE(service.bind_durability(dir, 8, false).ok());
    for (int i = 0; i < 150; ++i)
        service.submit(stream.next());
    const std::string payload = read_parts(dir).base;

    EXPECT_TRUE(recover_service(payload).ok());
    fuzz(payload, 202, 150, recover_service);
}

}  // namespace
}  // namespace ef
