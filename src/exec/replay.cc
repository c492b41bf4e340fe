#include "exec/replay.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"

namespace ef {

ReplayReport
replay_and_compare(const Trace &trace, const RunResult &result,
                   const OverheadConfig &overhead_config,
                   const NoiseConfig &noise)
{
    Topology topology(trace.topology);
    PerfModel perf(&topology);
    OverheadModel overhead(overhead_config);

    // The fluid simulator applies decisions instantly, so each event
    // takes effect at its own time: the comparison isolates the
    // fluid-vs-iteration approximation itself.
    std::map<JobId, JobExecution> executions;
    for (const JobOutcome &job : result.jobs) {
        if (job.admitted)
            executions.try_emplace(job.spec.id, job.spec, &perf, &overhead,
                                   noise_factor(noise, job.spec.id));
    }

    // Feed the allocation log in order. An empty GPU set suspends; a
    // job that has finished ignores further scales (JobExecution).
    Time last = -kTimeInfinity;
    for (const AllocationEvent &event : result.allocation_log) {
        EF_CHECK_MSG(event.time >= last,
                     "allocation log out of time order at t="
                         << event.time);
        last = event.time;
        auto it = executions.find(event.job);
        if (it == executions.end())
            continue;
        it->second.scale(event.time, event.gpus);
    }
    for (auto &[id, exec] : executions)
        exec.advance(1e18);

    ReplayReport report;
    double error_sum = 0.0;
    for (const JobOutcome &job : result.jobs) {
        if (!job.admitted || !job.finished || job.failures_suffered > 0)
            continue;
        const JobExecution &exec = executions.at(job.spec.id);
        if (!exec.finished())
            continue;  // replay could not finish it (shouldn't happen)
        ReplayJobResult r;
        r.job = job.spec.id;
        r.sim_finish = job.finish_time;
        r.replay_finish = exec.last_progress_time();
        double span =
            std::max(job.finish_time - job.spec.submit_time, 1e-9);
        r.relative_error =
            std::fabs(r.replay_finish - r.sim_finish) / span;
        error_sum += r.relative_error;
        report.max_relative_error =
            std::max(report.max_relative_error, r.relative_error);
        report.jobs.push_back(r);
    }
    report.compared = report.jobs.size();
    report.mean_relative_error =
        report.compared > 0
            ? error_sum / static_cast<double>(report.compared)
            : 0.0;
    return report;
}

}  // namespace ef
