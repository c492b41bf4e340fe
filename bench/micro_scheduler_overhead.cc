/**
 * @file
 * Micro benchmarks (google-benchmark) for the scheduler's own decision
 * latency — the analogue of the paper's claim that scheduling overhead
 * is negligible next to the ~23-minute scheduling interval: admission
 * control (Algorithm 1), resource allocation (Algorithm 2), buddy
 * placement with defragmentation, and performance-model evaluation.
 */
#include <benchmark/benchmark.h>

#include "cluster/placement.h"
#include "common/rng.h"
#include "core/allocator.h"
#include "workload/perf_model.h"

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

void
BM_AdmissionControl(benchmark::State &state)
{
    const int num_jobs = static_cast<int>(state.range(0));
    PlannerConfig config;
    config.total_gpus = 128;
    config.slot_seconds = 600.0;
    std::vector<PlanningJob> jobs = make_jobs(num_jobs, 128, 42);
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_admission(config, 0.0, jobs));
    }
}
BENCHMARK(BM_AdmissionControl)->Arg(8)->Arg(32)->Arg(128);

void
BM_ResourceAllocation(benchmark::State &state)
{
    const int num_jobs = static_cast<int>(state.range(0));
    PlannerConfig config;
    config.total_gpus = 128;
    config.slot_seconds = 600.0;
    std::vector<PlanningJob> jobs = make_jobs(num_jobs, 128, 7);
    AdmissionOutcome admission = run_admission(config, 0.0, jobs);
    if (!admission.feasible) {
        state.SkipWithError("fixture infeasible");
        return;
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run_allocation(config, 0.0, admission.ledger, {}));
    }
}
BENCHMARK(BM_ResourceAllocation)->Arg(8)->Arg(32);

/**
 * The hot-path stress case: 2048 GPUs, 1000 jobs. Minimum shares are
 * packed latest so slot 0 has headroom and the greedy upgrade loop
 * actually runs to depth — with earliest packing the fixture
 * degenerates (slot 0 saturates on minimum shares alone and the loop
 * exits immediately).
 */
/** Which of a pair of equivalent implementations a benchmark times:
 *  the optimized one or the in-tree reference it is checked against. */
enum class Impl { kReference, kIncremental };

void
BM_ResourceAllocationLarge(benchmark::State &state, Impl mode)
{
    const int num_jobs = static_cast<int>(state.range(0));
    const GpuCount gpus = static_cast<GpuCount>(state.range(1));
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
    for (auto _ : state) {
        switch (mode) {
          case Impl::kReference:
            benchmark::DoNotOptimize(run_allocation_reference(
                config, 0.0, admission.ledger, {}));
            break;
          case Impl::kIncremental:
            benchmark::DoNotOptimize(run_allocation(
                config, 0.0, admission.ledger, {}));
            break;
        }
    }
}
BENCHMARK_CAPTURE(BM_ResourceAllocationLarge, incremental,
                  Impl::kIncremental)
    ->Args({1000, 2048})
    ->Args({1000, 16384})
    ->Args({1000, 65536})
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResourceAllocationLarge, reference,
                  Impl::kReference)
    ->Args({1000, 2048})
    ->Unit(benchmark::kMillisecond);

/**
 * Random place/release churn with migrating buddy placement, 200 steps
 * per 128 GPUs so the cluster fills up and repacks at every size.
 * `reference` serves the same requests through the original global
 * bin-to-server matching (place_reference).
 */
void
BM_BuddyPlacementChurn(benchmark::State &state, Impl mode)
{
    const GpuCount gpus = static_cast<GpuCount>(state.range(0));
    Topology topo(TopologySpec::with_total_gpus(gpus));
    const int steps = 200 * (gpus / 128);
    Rng rng(5);
    for (auto _ : state) {
        PlacementManager manager(&topo);
        std::vector<JobId> live;
        JobId next = 0;
        for (int step = 0; step < steps; ++step) {
            if (live.empty() || rng.flip(0.6)) {
                GpuCount size = GpuCount(1) << rng.uniform_int(0, 4);
                if (size <= manager.idle_gpus()) {
                    benchmark::DoNotOptimize(
                        mode == Impl::kIncremental
                            ? manager.place(next, size,
                                            PlacementStrategy::kBestFitCompact,
                                            true)
                            : manager.place_reference(
                                  next, size,
                                  PlacementStrategy::kBestFitCompact, true));
                    live.push_back(next);
                }
                ++next;
            } else {
                std::size_t idx = static_cast<std::size_t>(
                    rng.uniform_int(0,
                                    static_cast<std::int64_t>(
                                        live.size()) - 1));
                manager.release(live[idx]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(idx));
            }
        }
    }
}
BENCHMARK_CAPTURE(BM_BuddyPlacementChurn, incremental, Impl::kIncremental)
    ->Arg(128)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuddyPlacementChurn, reference, Impl::kReference)
    ->Arg(128)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void
BM_PerfModelThroughput(benchmark::State &state)
{
    Topology topo(TopologySpec::testbed_128());
    PerfModel perf(&topo);
    for (auto _ : state) {
        for (DnnModel model : all_models()) {
            benchmark::DoNotOptimize(perf.compact_throughput(
                model, model_profile(model).batch_sizes.back(), 8));
        }
    }
}
BENCHMARK(BM_PerfModelThroughput);

}  // namespace
}  // namespace ef

/**
 * Custom main instead of BENCHMARK_MAIN(): records the build type of
 * the ef libraries actually under measurement. The upstream
 * `library_build_type` context key reports how the google-benchmark
 * harness itself was compiled (the distro ships a debug build of the
 * .so), which says nothing about the planner code being timed —
 * `ef_build_type` is the key baselines and CI gate on.
 */
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
