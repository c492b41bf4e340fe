/**
 * @file
 * Snapshot-payload fuzz: seeded mutations of real Simulator (churn +
 * faults + defrag) and serve::Service snapshots — byte flips,
 * truncations and inflated counts — are rewritten through
 * recover::write_snapshot_file, so the checksum is valid and the
 * derived decoder sees the mutated bytes. Recovery must then return OK
 * or a typed error, never abort. Two targeted cases check that
 * GPU-table corruptions the placement layer would abort on (a GPU both
 * down and owned, an owned count that differs from the job's gpus) are
 * rejected as kBadRecord.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "recover/log.h"
#include "recover/snapshot.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

using recover::ErrorCode;
using recover::Status;

/** An empty directory (its snapshot and journal removed). */
std::string
fresh_dir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "/" + name;
    std::filesystem::create_directories(dir);
    std::remove(recover::DurableLog::snapshot_path(dir).c_str());
    std::remove(recover::DurableLog::journal_path(dir).c_str());
    return dir;
}

std::string
read_payload(const std::string &dir)
{
    std::string payload;
    EXPECT_TRUE(recover::read_snapshot_file(
                    recover::DurableLog::snapshot_path(dir), &payload)
                    .ok());
    return payload;
}

/** A snapshot-only directory holding @p payload. */
std::string
dir_with(const std::string &payload)
{
    const std::string dir = fresh_dir("fuzz_target");
    EXPECT_TRUE(recover::write_snapshot_file(
                    recover::DurableLog::snapshot_path(dir), payload)
                    .ok());
    return dir;
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
            rejected += st.ok() ? 0 : 1;
        }
    }
    EXPECT_GT(rejected, 0);
}

// --- Simulator: churn + GPU faults + RPC drops + defrag --------------

Trace
churn_trace()
{
    TraceGenConfig gen = churn_preset();
    gen.num_jobs = 60;
    return TraceGenerator::generate(gen);
}

SimConfig
churn_config(const std::string &dir, bool recover)
{
    SimConfig config;
    config.defrag.enabled = true;
    config.faults.seed = 3;
    config.faults.gpu_mtbf_s = 2.0 * kDay;
    config.faults.rpc_drop_prob = 0.02;
    FaultEvent crash;
    crash.type = FaultType::kSchedCrash;
    crash.target = 45;
    config.faults.script.push_back(crash);
    config.durability.journal_dir = dir;
    config.durability.snapshot_every = 40;
    config.durability.recover = recover;
    return config;
}

Status
recover_simulator(const std::string &payload)
{
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(churn_trace(), scheduler.get(),
                  churn_config(dir_with(payload), true));
    return sim.prepare_durability();
}

/** A mid-run churn snapshot (placed jobs, faulted GPUs, defrag). */
const std::string &
simulator_payload()
{
    static const std::string payload = [] {
        const std::string dir = fresh_dir("fuzz_sim_source");
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(churn_trace(), scheduler.get(),
                      churn_config(dir, false));
        sim.run();
        EXPECT_TRUE(sim.crashed());
        return read_payload(dir);
    }();
    return payload;
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

/** Offset of the owner of the first owned GPU of @p table (or, with
 *  @p owned false, the first free and up one). */
std::size_t
first_row(const std::string &p, std::size_t table, bool owned)
{
    std::size_t g = 0;
    while ((p[table + 8 + 8 * g] != '\xff') != owned ||
           (!owned && p[up_flag(table, table + 8 + 8 * g)] != 1))
        ++g;
    return table + 8 + 8 * g;
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
    const std::size_t owned = first_row(payload, table, true);

    std::string down = payload;
    down[up_flag(table, owned)] = 0;  // an owned GPU marked down
    EXPECT_EQ(recover_simulator(down).code, ErrorCode::kBadRecord);

    // Hand a free, healthy GPU to the owner of another: that job now
    // holds one GPU more than its gpus count says.
    std::string extra = payload;
    extra.replace(first_row(payload, table, false), 8,
                  payload.substr(owned, 8));
    EXPECT_EQ(recover_simulator(extra).code, ErrorCode::kBadRecord);
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
    const std::string payload = read_payload(dir);

    EXPECT_TRUE(recover_service(payload).ok());
    fuzz(payload, 202, 150, recover_service);
}

}  // namespace
}  // namespace ef
