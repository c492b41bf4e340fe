/**
 * @file
 * Figure 3 — the motivating example: EDF serializes two jobs with the
 * concave curve T(1)=1, T(2)=1.5 (deadlines 3 and 3.5, size 3 each, 2
 * workers) and misses B's deadline; the elastic allocation runs both
 * on one worker and meets both.
 */
#include "bench_util.h"

#include "core/allocator.h"

namespace {

ef::PlanningJob
make_job(ef::JobId id, double remaining, ef::Time deadline)
{
    ef::PlanningJob job;
    job.id = id;
    job.curve = ef::ScalingCurve::from_pow2_table({1.0, 1.5});
    job.remaining_iterations = remaining;
    job.deadline = deadline;
    return job;
}

}  // namespace

int
main()
{
    using namespace ef;
    PlannerConfig config;
    config.total_gpus = 2;
    config.slot_seconds = 1.0;

    bench::section("Figure 3: EDF vs optimal on the concave curve "
                    "T(1)=1, T(2)=1.5");

    // EDF (Fig. 3b): A takes both workers, B runs after.
    {
        double a_finish = 3.0 / 1.5;            // 2 units on 2 workers
        double b_finish = a_finish + 3.0 / 1.5; // then B on 2 workers
        ConsoleTable table({"job", "deadline", "finish", "met?"});
        table.add_row({"A", "3.0", format_double(a_finish, 2),
                       a_finish <= 3.0 ? "yes" : "NO"});
        table.add_row({"B", "3.5", format_double(b_finish, 2),
                       b_finish <= 3.5 ? "yes" : "NO"});
        std::cout << "EDF (whole cluster to the earliest deadline):\n"
                  << table.render();
    }

    // ElasticFlow's Algorithms 1+2 (Fig. 3c): one worker each.
    {
        std::vector<PlanningJob> jobs = {make_job(1, 3.0, 3.0),
                                         make_job(2, 3.0, 3.5)};
        AdmissionOutcome admission = run_admission(config, 0.0, jobs);
        const std::vector<PlanningJob> &rows = admission.ledger.jobs;
        AllocationOutcome outcome =
            run_allocation(config, 0.0, admission.ledger, {});
        ConsoleTable table({"job", "deadline", "gpus-now", "finish",
                            "met?"});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const PlanningJob &job = rows[i];
            Time finish = plan_finish_seconds(
                job.curve, outcome.plans[i], job.remaining_iterations, 1.0);
            table.add_row({job.id == 1 ? "A" : "B",
                           format_double(job.deadline, 1),
                           std::to_string(outcome.slo_gpus[i]),
                           format_double(finish, 2),
                           finish <= job.deadline ? "yes" : "NO"});
        }
        std::cout << "\nElasticFlow (minimum satisfactory shares):\n"
                  << table.render();
    }
    return 0;
}
