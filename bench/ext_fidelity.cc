/**
 * @file
 * Simulator fidelity (paper §6.1): the paper validates its event
 * simulator against the real 128-GPU testbed and reports <=3% error.
 * Here the "real system" stand-in is the iteration-granular executor:
 * every scheduler's full allocation timeline is replayed through one
 * JobExecution per admitted job and per-job completion times are
 * compared.
 */
#include "bench_util.h"

#include "exec/replay.h"

int
main()
{
    using namespace ef;
    Trace trace = TraceGenerator::generate(testbed_small_preset());

    bench::section("Simulator fidelity: fluid sim vs executor replay");
    ConsoleTable table({"scheduler", "jobs compared", "mean err",
                        "max err", "within 3%?"});
    SimConfig config;  // default overheads, charged identically
    for (const std::string &name : all_scheduler_names()) {
        RunResult result = bench::run_once(trace, name, config);
        ReplayReport report =
            replay_and_compare(trace, result, config.overhead, config.noise);
        table.add_row({name, std::to_string(report.compared),
                       format_percent(report.mean_relative_error, 2),
                       format_percent(report.max_relative_error, 2),
                       report.mean_relative_error <= 0.03 ? "yes"
                                                          : "NO"});
    }
    std::cout << table.render();
    std::cout << "(paper: simulator error vs the real cluster is "
                 "no more than 3%)\n";
    return 0;
}
