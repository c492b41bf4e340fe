/**
 * @file
 * Service-mode soak: push a million synthetic submissions through the
 * ef::serve streaming front end (admission + allocation, no
 * simulator) and verify the overload-control invariants hold at
 * scale:
 *
 *  - bounded memory: the admission queue never exceeds the watermark
 *    (everything beyond it is shed synchronously);
 *  - determinism: two identical runs produce byte-identical
 *    state_hash and counters;
 *  - every submission gets exactly one verdict.
 *
 * Reports decision-latency p50/p99 (from the ef::obs histogram the
 * service feeds) and per-verdict shed rates. Exits nonzero when any
 * invariant fails, so CI can run it as a smoke test:
 *
 *   ext_service_soak [count] [arrival_rate_jobs_per_s]
 *
 * defaults to 1,000,000 submissions at 100 jobs/s — a deliberate
 * overload of the 64-GPU fixture, so the shed path and the governor's
 * batching both stay hot.
 */
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/stream.h"

namespace ef {
namespace {

constexpr GpuCount kGpus = 64;
constexpr std::size_t kWatermark = 64;

const std::vector<double> kLatencyEdges = {
    0.001, 0.01, 0.1, 0.5, 1.0,  2.0,
    5.0,   10.0, 20.0, 30.0, 60.0, 120.0, 300.0};

struct SoakResult
{
    serve::ServiceStats stats;
    std::uint64_t state_hash = 0;
    double p50 = 0.0;
    double p99 = 0.0;
};

SoakResult
run_soak(std::uint64_t count, double arrival_rate)
{
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(kGpus);
    stream_config.arrival_rate = arrival_rate;
    stream_config.seed = 42;

    serve::ServiceConfig service_config;
    service_config.total_gpus = kGpus;
    service_config.queue_watermark = kWatermark;
    service_config.governor.rounds_per_second = 0.5;
    service_config.governor.burst = 2.0;
    service_config.governor.starvation_horizon_s = 120.0;
    service_config.degrade_infeasible = true;
    service_config.max_active_best_effort = 256;

    serve::SyntheticStream stream(stream_config);
    serve::Service service(service_config);

    SoakResult result;
    obs::MetricsRegistry registry;
    {
        obs::MetricsScope metrics_scope(&registry);
        for (std::uint64_t i = 0; i < count; ++i)
            service.submit(stream.next());
        service.finish();
        result.stats = service.stats();
        result.state_hash = service.state_hash();
        const obs::Histogram &latency = registry.histogram(
            "serve.decision_latency_s", kLatencyEdges);
        result.p50 = obs::histogram_quantile(latency, 0.5);
        result.p99 = obs::histogram_quantile(latency, 0.99);
    }
    return result;
}

std::string
rate_of(std::uint64_t part, std::uint64_t whole)
{
    if (whole == 0)
        return "0.0%";
    return format_percent(static_cast<double>(part) /
                          static_cast<double>(whole));
}

}  // namespace
}  // namespace ef

int
main(int argc, char **argv)
{
    using namespace ef;
    std::uint64_t count = 1000000;
    double arrival_rate = 100.0;
    if (argc > 3 || (argc > 1 && !parse_number(argv[1], &count)) ||
        (argc > 2 && !parse_number(argv[2], &arrival_rate))) {
        std::cerr << "usage: ext_service_soak [count] "
                     "[arrival_rate_jobs_per_s]\n";
        return 2;
    }
    if (!(arrival_rate > 0.0 && std::isfinite(arrival_rate))) {
        std::cerr << "ext_service_soak: arrival_rate_jobs_per_s needs "
                     "a finite rate > 0\n";
        return 2;
    }

    std::cout << "soak: " << count << " submissions at "
              << format_double(arrival_rate, 1) << " jobs/s on "
              << kGpus << " GPUs (watermark " << kWatermark
              << "), two runs\n";

    const SoakResult first = run_soak(count, arrival_rate);
    const SoakResult second = run_soak(count, arrival_rate);
    const serve::ServiceStats &stats = first.stats;

    ConsoleTable table({"metric", "value"});
    table.add_row({"decided", std::to_string(stats.submitted)});
    table.add_row({"admitted (SLO)", std::to_string(stats.admitted)});
    table.add_row({"admitted (best-effort)",
                   std::to_string(stats.admitted_best_effort)});
    table.add_row({"degraded", std::to_string(stats.degraded)});
    table.add_row({"shed (queue-full)",
                   std::to_string(stats.shed_queue_full) + " (" +
                       rate_of(stats.shed_queue_full,
                               stats.submitted) + ")"});
    table.add_row({"shed (infeasible)",
                   std::to_string(stats.shed_infeasible) + " (" +
                       rate_of(stats.shed_infeasible,
                               stats.submitted) + ")"});
    table.add_row({"shed rate", rate_of(stats.shed(),
                                        stats.submitted)});
    table.add_row({"rounds (forced)",
                   std::to_string(stats.rounds) + " (" +
                       std::to_string(stats.rounds_forced) + ")"});
    table.add_row({"planning cost (units)",
                   std::to_string(stats.planning_cost)});
    table.add_row({"finished", std::to_string(stats.finished)});
    table.add_row({"max queue depth",
                   std::to_string(stats.max_queue_depth)});
    table.add_row({"decision latency p50 (s)",
                   format_double(first.p50, 3)});
    table.add_row({"decision latency p99 (s)",
                   format_double(first.p99, 3)});
    std::cout << table.render();
    std::cout << "state-hash run 1: " << std::hex << first.state_hash
              << "  run 2: " << second.state_hash << std::dec << "\n";

    int failures = 0;
    if (stats.submitted != count) {
        std::cout << "FAIL: " << stats.submitted << " verdicts for "
                  << count << " submissions\n";
        ++failures;
    }
    if (stats.max_queue_depth > kWatermark) {
        std::cout << "FAIL: queue depth " << stats.max_queue_depth
                  << " exceeded the watermark " << kWatermark << "\n";
        ++failures;
    }
    if (first.state_hash != second.state_hash) {
        std::cout << "FAIL: state hashes differ between runs\n";
        ++failures;
    }
    if (second.stats.submitted != stats.submitted ||
        second.stats.shed_queue_full != stats.shed_queue_full ||
        second.stats.rounds != stats.rounds) {
        std::cout << "FAIL: counters differ between runs\n";
        ++failures;
    }
    if (failures == 0)
        std::cout << "OK: all soak invariants held\n";
    return failures == 0 ? 0 : 1;
}
