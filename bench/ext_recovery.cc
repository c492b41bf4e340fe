/**
 * @file
 * Micro benchmarks (google-benchmark) for the durable control plane
 * (DESIGN.md §12): the cost of one cadence checkpoint (a history
 * segment plus a journal head) and of one base, both encoded from a
 * mid-run state, and a complete recovery — chain load plus journal
 * replay — on the 2048-GPU / 1000-job fixture. Both are also compiled into
 * micro_scheduler_overhead (with EF_BENCH_NO_MAIN) so recovery cost is
 * measured next to the scheduler numbers.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common/check.h"
#include "fault/fault.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

constexpr GpuCount kGpus = 2048;
constexpr int kJobs = 1000;

const Trace &
big_trace()
{
    static const Trace kTrace = [] {
        TraceGenConfig gen = testbed_large_preset();
        gen.name = "recovery-2048gpu-1000jobs";
        gen.topology = TopologySpec::with_total_gpus(kGpus);
        gen.num_jobs = kJobs;
        gen.mean_interarrival_s = 60.0;
        return TraceGenerator::generate(gen);
    }();
    return kTrace;
}

/**
 * One uninterrupted durable run with an effectively-infinite snapshot
 * cadence: afterwards @p dir holds the base snapshot of the fully
 * loaded initial state plus a journal with every round commit —
 * recovering it replays the entire run.
 */
RunResult
record_journal(const std::string &dir, bool recover = false)
{
    SimConfig config;
    config.durability.journal_dir = dir;
    config.durability.snapshot_every = 1u << 30;
    config.durability.recover = recover;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(big_trace(), scheduler.get(), config);
    recover::Status st = sim.prepare_durability();
    EF_CHECK_MSG(st.ok(), "bench journal setup failed");
    return sim.run();
}

void
copy_file(const std::string &from, const std::string &to)
{
    std::FILE *in = std::fopen(from.c_str(), "rb");
    std::FILE *out = std::fopen(to.c_str(), "wb");
    EF_CHECK_MSG(in != nullptr && out != nullptr,
                 "bench fixture copy failed");
    char buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, in)) > 0)
        std::fwrite(buf, 1, n, out);
    std::fclose(in);
    std::fclose(out);
}

/**
 * The fixture run stopped by a scheduler crash at its middle round: a
 * simulator holding a loaded mid-run state, and a log under
 * @p dir + "_out" that has written one base of it.
 */
struct MidRun
{
    std::unique_ptr<Scheduler> scheduler;
    std::unique_ptr<Simulator> sim;
    recover::DurableLog log;

    explicit MidRun(const std::string &dir)
    {
        const RunResult whole = record_journal(dir);
        SimConfig config;
        FaultEvent crash;
        crash.type = FaultType::kSchedCrash;
        crash.target =
            static_cast<std::int64_t>(whole.state_hash_samples / 2);
        config.faults.script.push_back(crash);
        config.durability.journal_dir = dir;
        config.durability.snapshot_every = 1u << 30;
        scheduler = make_scheduler("elasticflow");
        sim = std::make_unique<Simulator>(big_trace(), scheduler.get(),
                                          config);
        sim->run();
        EF_CHECK_MSG(sim->crashed(), "bench fixture did not stop mid-run");
        std::uint64_t bytes = 0;
        EF_CHECK_MSG(log.open(dir + "_out").ok() &&
                         recover::write_checkpoint(log, 0, *sim, true,
                                                   &bytes)
                             .ok(),
                     "bench base write failed");
    }

    /** One checkpoint; returns its encoded bytes. */
    std::uint64_t
    checkpoint(bool base)
    {
        std::uint64_t bytes = 0;
        EF_CHECK_MSG(
            recover::write_checkpoint(log, 0, *sim, base, &bytes).ok(),
            "bench checkpoint write failed");
        return bytes;
    }
};

/** One cadence checkpoint of the mid-run 2048-GPU / 1000-job state:
 *  encode the segment (empty here: nothing froze since the last one)
 *  and the head, append, replace the journal. */
void
BM_SnapshotWrite(benchmark::State &state)
{
    MidRun run("bench_recovery_snap");
    std::uint64_t bytes = 0;
    for (auto _ : state)
        bytes = run.checkpoint(false);
    state.counters["checkpoint_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotWrite)->Unit(benchmark::kMillisecond);

/** One base of the same state: a full encode, an atomic replace of the
 *  snapshot file and a journal restart. */
void
BM_SnapshotBase(benchmark::State &state)
{
    MidRun run("bench_recovery_base");
    std::uint64_t bytes = 0;
    for (auto _ : state)
        bytes = run.checkpoint(true);
    state.counters["base_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_SnapshotBase)->Unit(benchmark::kMillisecond);

/** A complete recovery of the 2048-GPU / 1000-job run: load the base
 *  snapshot, then re-execute and hash-verify every journaled round
 *  (the journal spans the whole run, so this is a full replay). */
void
BM_RecoveryReplay(benchmark::State &state)
{
    const std::string dir = "bench_recovery_replay";
    const RunResult base = record_journal(dir);
    const std::string snap = recover::DurableLog::snapshot_path(dir);
    const std::string journal = recover::DurableLog::journal_path(dir);
    // Stash the pristine pre-crash image: each recovery re-anchors
    // the log (fresh snapshot, truncated journal) and would otherwise
    // leave nothing to replay for the next iteration.
    copy_file(snap, snap + ".orig");
    copy_file(journal, journal + ".orig");

    std::uint64_t rounds = 0;
    for (auto _ : state) {
        state.PauseTiming();
        copy_file(snap + ".orig", snap);
        copy_file(journal + ".orig", journal);
        state.ResumeTiming();
        RunResult replayed = record_journal(dir, /*recover=*/true);
        EF_CHECK_MSG(replayed.state_hash == base.state_hash,
                     "bench recovery diverged from the baseline");
        rounds = replayed.state_hash_samples;
    }
    state.counters["rounds_replayed"] = static_cast<double>(rounds);
}
BENCHMARK(BM_RecoveryReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ef

#ifndef EF_BENCH_NO_MAIN
/** Same custom main as micro_scheduler_overhead: record the build type
 *  of the ef libraries under measurement (`ef_build_type`). */
int
main(int argc, char **argv)
{
#ifdef NDEBUG
    benchmark::AddCustomContext("ef_build_type", "release");
#else
    benchmark::AddCustomContext("ef_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
#endif  // EF_BENCH_NO_MAIN
