/**
 * @file
 * Command-line driver: run any scheduler on a CSV job trace, or dump
 * one of the built-in presets to CSV to edit and replay.
 *
 *   # dump a preset workload to CSV
 *   ./run_trace --generate testbed-small my_trace.csv
 *
 *   # replay it (or your own trace) under a scheduler
 *   ./run_trace my_trace.csv --gpus 32 --scheduler elasticflow
 *   ./run_trace my_trace.csv --gpus 32 --scheduler tiresias \
 *       --mtbf 3 --noise 0.05
 *
 * CSV columns: id,name,user,model,global_batch,iterations,
 * submit_time,deadline,kind,requested_gpus (deadline "inf" and kind
 * "best-effort" for jobs without one; kind "soft" for soft deadlines).
 *
 * Service mode (streaming admission through serve::Service, see
 * src/serve/) takes a synthetic open-loop stream, not a trace file:
 *
 *   ./run_trace --service --arrival-rate=0.5 --duration=7200 --gpus 64
 *
 * Flags accept both "--flag value" and "--flag=value". A missing,
 * malformed, non-finite or out-of-range value exits 2 with a message
 * naming the flag.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/csv.h"
#include "common/logging.h"
#include "common/table.h"
#include "fault/fault.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"
#include "workload/trace_io.h"

using namespace ef;

namespace {

/** Largest --gpus accepted: far above the paper's 2048-GPU cluster,
 *  and small enough that building its topology stays cheap. */
constexpr int kMaxGpus = 65536;

/** Shortest per-GPU mean time between faults --gpu-fault-rate accepts:
 *  one 300 s planning slot, so at most 288 faults per GPU-day. Faster
 *  rates bury the run in fault events, and it does not finish. */
constexpr Time kMinGpuMtbf = 300.0;

int
usage()
{
    std::cerr
        << "usage:\n"
        << "  run_trace <trace.csv> [--gpus N] [--scheduler NAME]\n"
        << "            [--noise FRACTION] [--no-coalesce] [--no-elide]\n"
        << "            [--mtbf DAYS] [--repair HOURS]\n"
        << "            [--gpu-fault-rate PER_GPU_PER_DAY (0, 288]]\n"
        << "            [--rpc-drop PROB] [--fault-script FILE]\n"
        << "            [--fault-seed N] [--state-hash]\n"
        << "            [--trace-out FILE.json] [--metrics-out FILE]\n"
        << "            [--journal-dir DIR] [--snapshot-every N]\n"
        << "            [--recover] [--report-out PREFIX]\n"
        << "            [--log-level debug|info|warn|error]\n"
        << "  run_trace --service --arrival-rate JOBS_PER_S "
        << "--duration SECONDS\n"
        << "            [--gpus N] [--seed N] [--state-hash]\n"
        << "            [--fault-script FILE] [--fault-seed N]\n"
        << "            [--rpc-drop PROB] [--metrics-out FILE]\n"
        << "  run_trace --generate <preset> <out.csv>\n"
        << "presets: testbed-small, testbed-large, philly, churn, "
        << "cluster1..cluster10\nschedulers:";
    for (const std::string &name : all_scheduler_names())
        std::cerr << " " << name;
    std::cerr << " edf+admission edf+elastic\n";
    return 2;
}

std::optional<TraceGenConfig>
preset_by_name(const std::string &name)
{
    if (name == "testbed-small")
        return testbed_small_preset();
    if (name == "testbed-large")
        return testbed_large_preset();
    if (name == "philly")
        return philly_preset();
    if (name == "churn")
        return churn_preset();
    int index = 0;
    if (name.rfind("cluster", 0) == 0 &&
        parse_number(name.substr(7), &index) && index >= 1 && index <= 10)
        return cluster_preset(index);
    return std::nullopt;
}

/**
 * Standalone service mode: push a synthetic open-loop stream through
 * the ef::serve front end (no simulator) and report the overload-
 * control counters plus decision-latency quantiles.
 */
int
run_service(double arrival_rate, Time duration, int gpus,
            std::uint64_t seed, const FaultConfig &fault_config,
            bool show_state_hash, const std::string &metrics_out)
{
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(gpus);
    stream_config.arrival_rate = arrival_rate;
    stream_config.seed = seed;

    serve::ServiceConfig service_config;
    service_config.total_gpus = gpus;
    service_config.degrade_infeasible = true;

    std::unique_ptr<FaultInjector> faults;
    if (fault_config.any())
        faults = std::make_unique<FaultInjector>(fault_config);

    serve::SyntheticStream stream(stream_config, faults.get());
    serve::Service service(service_config, faults.get());

    // The decision-latency histogram lives in ef::obs; install a
    // registry so the quantiles below have something to read.
    obs::MetricsRegistry registry;
    {
        obs::MetricsScope metrics_scope(&registry);
        while (true) {
            serve::Submission sub = stream.next();
            if (sub.spec.submit_time > duration)
                break;
            service.submit(std::move(sub));
        }
        service.advance_to(duration);
        service.finish();
    }

    const serve::ServiceStats &stats = service.stats();
    const std::uint64_t offered = stats.submitted + stats.rpc_dropped;
    const double shed_rate =
        stats.submitted > 0
            ? static_cast<double>(stats.shed()) /
                  static_cast<double>(stats.submitted)
            : 0.0;
    const std::vector<double> edges = {0.001, 0.01, 0.1, 0.5, 1.0,
                                       2.0,   5.0,  10.0, 20.0, 30.0,
                                       60.0,  120.0, 300.0};
    const obs::Histogram &latency =
        registry.histogram("serve.decision_latency_s", edges);

    std::cout << "service: " << offered << " submissions over "
              << format_double(duration / kHour, 1) << " h at "
              << format_double(arrival_rate, 3) << " jobs/s ("
              << gpus << " GPUs)\n\n";
    ConsoleTable table({"metric", "value"});
    table.add_row({"decided", std::to_string(stats.submitted)});
    table.add_row({"RPC-dropped", std::to_string(stats.rpc_dropped)});
    table.add_row({"admitted (SLO)", std::to_string(stats.admitted)});
    table.add_row({"admitted (best-effort)",
                   std::to_string(stats.admitted_best_effort)});
    table.add_row({"degraded", std::to_string(stats.degraded)});
    table.add_row({"shed (queue-full)",
                   std::to_string(stats.shed_queue_full)});
    table.add_row({"shed (infeasible)",
                   std::to_string(stats.shed_infeasible)});
    table.add_row({"shed rate", format_percent(shed_rate)});
    table.add_row({"rounds (forced)",
                   std::to_string(stats.rounds) + " (" +
                       std::to_string(stats.rounds_forced) + ")"});
    table.add_row({"replan timeouts",
                   std::to_string(stats.replan_timeouts)});
    table.add_row({"planning cost (units)",
                   std::to_string(stats.planning_cost)});
    table.add_row({"finished", std::to_string(stats.finished)});
    table.add_row({"deadline misses",
                   std::to_string(stats.deadline_misses)});
    table.add_row({"max queue depth",
                   std::to_string(stats.max_queue_depth)});
    table.add_row({"decision latency p50 (s)",
                   format_double(
                       obs::histogram_quantile(latency, 0.5), 3)});
    table.add_row({"decision latency p99 (s)",
                   format_double(
                       obs::histogram_quantile(latency, 0.99), 3)});
    std::cout << table.render();

    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        EF_FATAL_IF(!out,
                    "cannot open " << metrics_out << " for writing");
        out << registry.text_dump();
        std::cout << "wrote metrics to " << metrics_out << "\n";
    }
    if (show_state_hash) {
        std::cout << "state-hash: " << std::hex << std::setw(16)
                  << std::setfill('0') << service.state_hash()
                  << std::dec << " samples: " << stats.rounds << "\n";
    }
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();

    if (std::strcmp(argv[1], "--generate") == 0) {
        if (argc != 4)
            return usage();
        const std::optional<TraceGenConfig> preset = preset_by_name(argv[2]);
        if (!preset.has_value()) {
            std::cerr << "run_trace: unknown preset '" << argv[2] << "'\n";
            return usage();
        }
        Trace trace = TraceGenerator::generate(*preset);
        save_trace_csv(argv[3], trace);
        Topology topo(trace.topology);
        std::cout << "wrote " << trace.jobs.size() << " jobs ("
                  << topo.total_gpus() << "-GPU preset) to " << argv[3]
                  << "\n";
        return 0;
    }

    // A leading flag (instead of a trace path) selects service mode.
    std::string trace_path;
    int first_flag = 1;
    if (argv[1][0] != '-') {
        trace_path = argv[1];
        first_flag = 2;
    }
    int gpus = 128;
    std::string scheduler_name = "elasticflow";
    bool show_state_hash = false;
    bool service_mode = false;
    double arrival_rate = 0.0;
    Time service_duration = 0.0;
    std::uint64_t stream_seed = 1;
    std::string trace_out;
    std::string metrics_out;
    std::string report_out;
    std::string fault_script;
    SimConfig sim_config;
    for (int i = first_flag; i < argc; ++i) {
        std::string arg = argv[i];
        // Accept --flag=value as well as --flag value.
        std::string inline_value;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg = arg.substr(0, eq);
                has_inline = true;
            }
        }
        // A missing, malformed or out-of-range value clears `ok`; the
        // flag is then reported with what it wants and the usage text
        // (exit 2).
        bool ok = true;
        std::string want = "a valid value";
        auto next = [&]() -> std::string {
            if (has_inline)
                return inline_value;
            if (i + 1 >= argc) {
                ok = false;
                return "";
            }
            return argv[++i];
        };
        auto number = [&](auto *out) {
            ok = parse_number(next(), out) && ok;
            if constexpr (std::is_floating_point_v<
                              std::remove_pointer_t<decltype(out)>>)
                ok = ok && std::isfinite(*out);
        };
        auto require = [&](bool in_range, const std::string &what) {
            if (ok && !in_range) {
                ok = false;
                want = what;
            }
        };
        // For values converted below, which can overflow to infinity.
        auto positive = [](double v) { return v > 0.0 && std::isfinite(v); };
        auto non_negative = [](double v) {
            return v >= 0.0 && std::isfinite(v);
        };
        double scaled = 0.0;  // a value the flag converts below
        if (arg == "--service") {
            service_mode = true;
        } else if (arg == "--arrival-rate") {
            number(&arrival_rate);
            require(arrival_rate > 0.0, "jobs per second > 0");
        } else if (arg == "--duration") {
            number(&service_duration);
            require(service_duration > 0.0, "seconds > 0");
        } else if (arg == "--seed") {
            number(&stream_seed);
        } else if (arg == "--gpus") {
            number(&gpus);
            require(gpus >= 1 && gpus <= kMaxGpus,
                    "a GPU count in [1, " + std::to_string(kMaxGpus) + "]");
        } else if (arg == "--scheduler") {
            scheduler_name = next();
            const std::vector<std::string> &names = all_scheduler_names();
            require(std::find(names.begin(), names.end(), scheduler_name) !=
                            names.end() ||
                        scheduler_name == "edf+admission" ||
                        scheduler_name == "edf+elastic",
                    "one of the schedulers listed below");
        } else if (arg == "--noise") {
            number(&sim_config.noise.throughput_error);
            require(sim_config.noise.throughput_error >= 0.0 &&
                        sim_config.noise.throughput_error < 1.0,
                    "a fraction in [0, 1)");
        } else if (arg == "--no-coalesce") {
            sim_config.coalesce_replans = false;
        } else if (arg == "--no-elide") {
            sim_config.elide_replans = false;
        } else if (arg == "--mtbf") {
            number(&scaled);
            sim_config.faults.server_mtbf_s = scaled * kDay;
            require(non_negative(sim_config.faults.server_mtbf_s),
                    "days >= 0 (0 disables)");
        } else if (arg == "--repair") {
            number(&scaled);
            sim_config.faults.server_repair_s = scaled * kHour;
            require(non_negative(sim_config.faults.server_repair_s),
                    "hours >= 0");
        } else if (arg == "--gpu-fault-rate") {
            number(&scaled);
            sim_config.faults.gpu_mtbf_s = kDay / scaled;
            require(positive(sim_config.faults.gpu_mtbf_s) &&
                        sim_config.faults.gpu_mtbf_s >= kMinGpuMtbf,
                    "faults per GPU-day in (0, 288]");
        } else if (arg == "--rpc-drop") {
            number(&sim_config.faults.rpc_drop_prob);
            require(sim_config.faults.rpc_drop_prob >= 0.0 &&
                        sim_config.faults.rpc_drop_prob <= 1.0,
                    "a probability in [0, 1]");
        } else if (arg == "--fault-script") {
            fault_script = next();
            const std::optional<FaultScriptError> error =
                ok ? load_fault_script(fault_script,
                                       &sim_config.faults.script)
                   : std::nullopt;
            if (error.has_value()) {
                std::cerr << "run_trace: " << fault_script << ": "
                          << error->to_string() << "\n";
                return 2;
            }
        } else if (arg == "--fault-seed") {
            number(&sim_config.faults.seed);
        } else if (arg == "--state-hash") {
            show_state_hash = true;
        } else if (arg == "--journal-dir") {
            sim_config.durability.journal_dir = next();
        } else if (arg == "--snapshot-every") {
            number(&sim_config.durability.snapshot_every);
            require(sim_config.durability.snapshot_every >= 1,
                    "a round count >= 1");
        } else if (arg == "--recover") {
            sim_config.durability.recover = true;
        } else if (arg == "--report-out") {
            report_out = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--log-level") {
            std::string name = next();
            auto level = log_level_from_name(name);
            if (!level.has_value()) {
                std::cerr << "run_trace: unknown log level '" << name
                          << "' (want debug|info|warn|error)\n";
                return usage();
            }
            set_log_level(*level);
        } else {
            std::cerr << "run_trace: unknown flag '" << arg << "'\n";
            return usage();
        }
        if (!ok) {
            std::cerr << "run_trace: " << arg << " needs " << want << "\n";
            return usage();
        }
    }

    if (sim_config.durability.recover &&
        sim_config.durability.journal_dir.empty()) {
        std::cerr << "run_trace: --recover needs --journal-dir\n";
        return usage();
    }
    if (trace_path.empty()) {
        if (!sim_config.durability.journal_dir.empty()) {
            std::cerr << "run_trace: --journal-dir applies only to "
                      << "trace replays (crash-consistent simulator "
                      << "runs)\n";
            return usage();
        }
        if (!service_mode || arrival_rate <= 0.0 ||
            service_duration <= 0.0) {
            std::cerr << "run_trace: standalone service mode needs "
                      << "--service, --arrival-rate > 0 and "
                      << "--duration > 0\n";
            return usage();
        }
        return run_service(arrival_rate, service_duration, gpus,
                           stream_seed, sim_config.faults,
                           show_state_hash, metrics_out);
    }
    if (service_mode) {
        std::cerr << "run_trace: --service takes no trace file; run "
                  << "run_trace --service --arrival-rate JOBS_PER_S "
                  << "--duration SECONDS\n";
        return usage();
    }
    if (arrival_rate > 0.0 || service_duration > 0.0) {
        std::cerr << "run_trace: --arrival-rate/--duration apply only "
                  << "to standalone --service mode (no trace file)\n";
        return usage();
    }

    Trace trace;
    if (const std::optional<TraceError> error = try_load_trace_csv(
            trace_path, TopologySpec::with_total_gpus(gpus), "csv-trace",
            &trace)) {
        std::cerr << "run_trace: " << trace_path << ": "
                  << error->to_string() << "\n";
        return 2;
    }
    // The script's targets are checked here, where the cluster and the
    // trace are known, not at the simulator's first event.
    std::vector<JobId> job_ids;
    for (const JobSpec &job : trace.jobs)
        job_ids.push_back(job.id);
    const Topology topology(trace.topology);
    if (const std::optional<FaultScriptError> error = check_fault_targets(
            sim_config.faults.script, topology.num_servers(),
            topology.total_gpus(), std::move(job_ids))) {
        std::cerr << "run_trace: " << fault_script << ": "
                  << error->to_string() << "\n";
        return 2;
    }
    auto scheduler = make_scheduler(scheduler_name);
    Simulator simulator(trace, scheduler.get(), sim_config);

    // Observability is opt-in: sinks are installed only when an output
    // file was requested, so the default path stays recorder-free.
    obs::RingBufferSink ring(std::size_t{1} << 20);
    obs::MetricsRegistry registry;
    std::optional<obs::TraceScope> trace_scope;
    std::optional<obs::MetricsScope> metrics_scope;
    if (!trace_out.empty())
        trace_scope.emplace(&ring);
    if (!metrics_out.empty())
        metrics_scope.emplace(&registry);

    if (!sim_config.durability.journal_dir.empty()) {
        // Surface unreadable/corrupt snapshot or journal input as a
        // line/record-numbered diagnostic and exit code 2, matching
        // the CSV trace and fault-script conventions — never an
        // EF_CHECK abort.
        recover::Status st = simulator.prepare_durability();
        if (!st.ok()) {
            std::cerr << "run_trace: " << st.to_string() << "\n";
            return 2;
        }
    }

    RunResult result = simulator.run();

    if (simulator.crashed()) {
        std::cerr << "run_trace: injected scheduler crash after "
                  << result.state_hash_samples
                  << " round commits; rerun with --recover to "
                     "resume\n";
        return 3;
    }

    trace_scope.reset();
    metrics_scope.reset();
    if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        EF_FATAL_IF(!out, "cannot open " << trace_out << " for writing");
        out << chrome_trace_json(ring.events(), ring.dropped());
        std::cout << "wrote " << ring.events().size()
                  << " trace events to " << trace_out << "\n";
    }
    if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        EF_FATAL_IF(!out,
                    "cannot open " << metrics_out << " for writing");
        out << registry.text_dump();
        std::cout << "wrote metrics to " << metrics_out << "\n";
    }
    if (!report_out.empty()) {
        save_run_report(report_out, result);
        std::cout << "wrote report files to " << report_out << ".*\n";
    }

    std::cout << summarize(result) << "\n\n";
    ConsoleTable table({"metric", "value"});
    table.add_row({"jobs", std::to_string(result.jobs.size())});
    table.add_row({"admitted",
                   std::to_string(result.admitted_count())});
    table.add_row({"deadline ratio",
                   format_percent(result.deadline_ratio())});
    table.add_row({"soft-deadline ratio",
                   format_percent(result.deadline_ratio_of(
                       JobKind::kSoftDeadline))});
    table.add_row(
        {"avg best-effort JCT (h)",
         format_double(result.average_jct(JobKind::kBestEffort) / kHour,
                       2)});
    table.add_row({"makespan (h)",
                   format_double(result.makespan / kHour, 1)});
    table.add_row({"GPU-hours",
                   format_double(result.total_gpu_seconds() / kHour,
                                 0)});
    int executed = result.replans_attempted -
                   result.replans_coalesced - result.replans_elided;
    table.add_row({"replans (run/merged/skipped)",
                   std::to_string(executed) + "/" +
                       std::to_string(result.replans_coalesced) + "/" +
                       std::to_string(result.replans_elided)});
    int fault_total = result.rpc_retries + result.rpc_gave_up +
                      result.stragglers_observed + result.gpu_faults +
                      result.ckpt_failures + result.slo_demotions;
    if (fault_total > 0) {
        table.add_row({"RPC retries / give-ups",
                       std::to_string(result.rpc_retries) + "/" +
                           std::to_string(result.rpc_gave_up)});
        table.add_row({"stragglers",
                       std::to_string(result.stragglers_observed)});
        table.add_row({"GPU faults",
                       std::to_string(result.gpu_faults)});
        table.add_row({"checkpoint failures",
                       std::to_string(result.ckpt_failures)});
        table.add_row({"SLO demotions",
                       std::to_string(result.slo_demotions)});
    }
    table.add_row({"fragmentation (avg/final)",
                   format_double(average_fragmentation(result), 3) +
                       "/" +
                       format_double(final_fragmentation(result), 3)});
    table.add_row({"span excess (avg/final)",
                   format_double(average_span_excess(result), 1) + "/" +
                       format_double(final_span_excess(result), 1)});
    std::cout << table.render();
    if (show_state_hash) {
        // Fixed single-line format so CI can diff two runs directly.
        std::cout << "state-hash: " << std::hex << std::setw(16)
                  << std::setfill('0') << result.state_hash << std::dec
                  << " samples: " << result.state_hash_samples << "\n";
    }
    return 0;
}
