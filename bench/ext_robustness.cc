/**
 * @file
 * Extension benches beyond the paper's figures, covering the §4.4
 * discussion items this reproduction implements:
 *  - node failures: deadline ratio vs. failure rate, with and without
 *    ElasticFlow's admission headroom;
 *  - throughput misestimation: guarantee robustness vs. profiling
 *    error (the margin's working range);
 *  - soft deadlines: hard/soft/best-effort mix outcomes;
 *  - quota policy: a flooding user with and without a quota.
 */
#include "bench_util.h"

#include "sched/admission_policy.h"
#include "sched/elastic_flow.h"

int
main()
{
    using namespace ef;

    bench::section("Node failures: deadline ratio vs MTBF (§4.4)");
    {
        ConsoleTable table({"server MTBF", "headroom", "ratio",
                            "missed admitted", "evictions"});
        TraceGenConfig gen = testbed_large_preset();
        gen.num_jobs = 120;
        Trace trace = TraceGenerator::generate(gen);
        for (double mtbf_days : {30.0, 7.0, 2.0}) {
            for (GpuCount headroom : {0, 16}) {
                SimConfig config;
                config.faults.server_mtbf_s = mtbf_days * kDay;
                config.faults.server_seed = 1;
                ElasticFlowConfig ef_config;
                ef_config.failure_headroom_gpus = headroom;
                ElasticFlowScheduler scheduler(ef_config);
                Simulator sim(trace, &scheduler, config);
                RunResult result = sim.run();
                int missed = 0, evictions = 0;
                for (const JobOutcome &job : result.jobs) {
                    evictions += job.failures_suffered;
                    if (job.admitted &&
                        job.spec.kind == JobKind::kSlo &&
                        !job.met_deadline()) {
                        ++missed;
                    }
                }
                table.add_row({format_double(mtbf_days, 0) + "d",
                               std::to_string(headroom),
                               format_percent(result.deadline_ratio()),
                               std::to_string(missed),
                               std::to_string(evictions)});
            }
        }
        std::cout << table.render();
    }

    bench::section("Profiling error: guarantee vs throughput noise");
    {
        ConsoleTable table({"noise", "ratio", "missed admitted"});
        TraceGenConfig gen = testbed_large_preset();
        gen.num_jobs = 120;
        Trace trace = TraceGenerator::generate(gen);
        for (double noise : {0.0, 0.02, 0.05, 0.10, 0.20}) {
            SimConfig config;
            config.noise.throughput_error = noise;
            RunResult result =
                bench::run_once(trace, "elasticflow", config);
            int missed = 0;
            for (const JobOutcome &job : result.jobs) {
                if (job.admitted && job.spec.kind == JobKind::kSlo &&
                    !job.met_deadline()) {
                    ++missed;
                }
            }
            table.add_row({format_percent(noise, 0),
                           format_percent(result.deadline_ratio()),
                           std::to_string(missed)});
        }
        std::cout << table.render();
        std::cout << "(the default 5% margin + allowance absorbs "
                     "small profiling error)\n";
    }

    bench::section("Soft deadlines: hard/soft mix (§4.4)");
    {
        ConsoleTable table({"soft fraction", "hard ratio",
                            "soft ratio", "dropped"});
        for (double fraction : {0.0, 0.2, 0.5}) {
            TraceGenConfig gen = testbed_large_preset();
            gen.num_jobs = 120;
            gen.soft_deadline_fraction = fraction;
            Trace trace = TraceGenerator::generate(gen);
            RunResult result = bench::run_once(trace, "elasticflow");
            table.add_row(
                {format_percent(fraction, 0),
                 format_percent(result.deadline_ratio()),
                 format_percent(result.deadline_ratio_of(
                     JobKind::kSoftDeadline)),
                 std::to_string(result.dropped_count())});
        }
        std::cout << table.render();
        std::cout << "(soft jobs are never dropped; misses cost them "
                     "only lateness)\n";
    }

    bench::section("Quota policy vs a flooding user (§4.4)");
    {
        TraceGenConfig gen = testbed_small_preset();
        gen.num_jobs = 40;
        gen.num_users = 4;
        Trace trace = TraceGenerator::generate(gen);
        // user-0 floods: every other job belongs to them.
        for (std::size_t i = 0; i < trace.jobs.size(); i += 2)
            trace.jobs[i].user = "user-0";

        ConsoleTable table({"policy", "user-0 admitted",
                            "others admitted", "ratio"});
        for (int quota : {0, 6}) {
            QuotaPolicy policy(quota);
            ElasticFlowScheduler scheduler;
            if (quota > 0)
                scheduler.set_admission_policy(&policy);
            Simulator sim(trace, &scheduler);
            RunResult result = sim.run();
            int flooder = 0, others = 0;
            for (const JobOutcome &job : result.jobs) {
                if (!job.admitted)
                    continue;
                (job.spec.user == "user-0" ? flooder : others) += 1;
            }
            table.add_row({quota == 0 ? "none"
                                      : std::to_string(quota) + "/day",
                           std::to_string(flooder),
                           std::to_string(others),
                           format_percent(result.deadline_ratio())});
        }
        std::cout << table.render();
    }
    return 0;
}
