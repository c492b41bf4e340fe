/**
 * @file
 * Micro benchmarks (google-benchmark) for the ef::obs recorder: the
 * cost of a disabled instrumentation site, raw emit/count throughput
 * into the in-memory sinks, and — the headline number — the overhead a
 * recorder adds to the scheduler hot path on the 2048-GPU / 1000-job
 * fixture. The design target is <5% on that case; compare the
 * `recorder_off` and `recorder_on` variants.
 */
#include <benchmark/benchmark.h>

#include <optional>

#include "common/rng.h"
#include "core/allocator.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/perf_model.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

std::vector<PlanningJob>
make_jobs(int count, GpuCount gpus, std::uint64_t seed)
{
    Rng rng(seed);
    Topology topo(TopologySpec::with_total_gpus(gpus));
    PerfModel perf(&topo);
    std::vector<PlanningJob> jobs;
    for (int i = 0; i < count; ++i) {
        DnnModel model = all_models()[static_cast<std::size_t>(
            rng.uniform_int(0, kNumModels - 1))];
        int batch = model_profile(model).batch_sizes.back();
        PlanningJob job;
        job.id = i;
        job.curve = ScalingCurve::from_pow2_table(
            perf.compact_pow2_throughputs(model, batch, gpus));
        double duration = rng.uniform_real(0.5, 8.0) * kHour;
        job.remaining_iterations =
            duration * job.curve.throughput(job.curve.min_workers());
        job.deadline = duration * rng.uniform_real(0.8, 2.5);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

/** The cost of one instrumentation site with no recorder installed:
 *  must stay at a single predictable branch. */
void
BM_EmitDisabled(benchmark::State &state)
{
    obs::TraceEvent event;
    event.time = 1.0;
    event.kind = obs::EventKind::kJobSubmit;
    event.job = 1;
    for (auto _ : state) {
        obs::emit(event);
        obs::count("bench.disabled");
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_EmitDisabled);

void
BM_EmitRingBuffer(benchmark::State &state)
{
    obs::RingBufferSink ring(1 << 16);
    obs::TraceScope scope(&ring);
    obs::TraceEvent event;
    event.time = 1.0;
    event.kind = obs::EventKind::kJobSubmit;
    event.job = 1;
    for (auto _ : state)
        obs::emit(event);
}
BENCHMARK(BM_EmitRingBuffer);

void
BM_CounterInc(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    for (auto _ : state)
        obs::count("bench.counter");
}
BENCHMARK(BM_CounterInc);

void
BM_HistogramObserve(benchmark::State &state)
{
    obs::MetricsRegistry registry;
    obs::MetricsScope scope(&registry);
    const std::vector<double> edges = {1.0, 2.0, 4.0, 8.0, 16.0};
    double v = 0.0;
    for (auto _ : state) {
        obs::observe("bench.hist", edges, v);
        v = v >= 20.0 ? 0.0 : v + 0.37;
    }
}
BENCHMARK(BM_HistogramObserve);

/**
 * Recorder overhead on the scheduler hot path: the same 2048-GPU /
 * 1000-job allocation case micro_scheduler_overhead measures, with and
 * without a recorder installed. The paper-level claim we defend is
 * that observability is effectively free next to the planning work.
 */
void
BM_AllocationLargeObs(benchmark::State &state, bool recorder)
{
    const int num_jobs = 1000;
    const GpuCount gpus = 2048;
    PlannerConfig config;
    config.total_gpus = gpus;
    config.slot_seconds = 600.0;
    config.direction = FillDirection::kLatest;
    std::vector<PlanningJob> jobs = make_jobs(num_jobs, gpus, 99);
    AdmissionOutcome admission = run_admission(config, 0.0, jobs);
    if (!admission.feasible) {
        state.SkipWithError("fixture infeasible");
        return;
    }
    obs::RingBufferSink ring(1 << 16);
    obs::MetricsRegistry registry;
    std::optional<obs::TraceScope> ts;
    std::optional<obs::MetricsScope> ms;
    if (recorder) {
        ts.emplace(&ring);
        ms.emplace(&registry);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run_allocation(config, 0.0, admission.ledger, {}));
    }
}
BENCHMARK_CAPTURE(BM_AllocationLargeObs, recorder_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AllocationLargeObs, recorder_on, true)
    ->Unit(benchmark::kMillisecond);

/** End-to-end: a full simulated day with and without a recorder, plus
 *  the export cost itself. */
void
BM_SimulationObs(benchmark::State &state, bool recorder)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 25;
    Trace trace = TraceGenerator::generate(gen);
    for (auto _ : state) {
        auto scheduler = make_scheduler("elasticflow");
        Simulator sim(trace, scheduler.get());
        if (recorder) {
            obs::RingBufferSink ring(1 << 18);
            obs::MetricsRegistry registry;
            obs::TraceScope ts(&ring);
            obs::MetricsScope ms(&registry);
            benchmark::DoNotOptimize(sim.run());
        } else {
            benchmark::DoNotOptimize(sim.run());
        }
    }
}
BENCHMARK_CAPTURE(BM_SimulationObs, recorder_off, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SimulationObs, recorder_on, true)
    ->Unit(benchmark::kMillisecond);

void
BM_ChromeTraceExport(benchmark::State &state)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 25;
    Trace trace = TraceGenerator::generate(gen);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());
    obs::RingBufferSink ring(1 << 18);
    {
        obs::TraceScope scope(&ring);
        sim.run();
    }
    std::vector<obs::TraceEvent> events = ring.events();
    for (auto _ : state)
        benchmark::DoNotOptimize(obs::chrome_trace_json(events));
}
BENCHMARK(BM_ChromeTraceExport);

}  // namespace
}  // namespace ef

BENCHMARK_MAIN();
