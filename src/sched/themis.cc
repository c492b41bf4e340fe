#include "sched/themis.h"

#include <algorithm>
#include <vector>

#include "common/check.h"

namespace ef {

double
ThemisScheduler::finish_time_fairness(JobId id) const
{
    const JobSpec &spec = view_->spec(id);
    double dedicated_tpt =
        view_->curve(id).throughput(spec.requested_gpus);
    EF_CHECK(dedicated_tpt > 0.0);

    // Ideal: running alone on the requested GPUs since submission.
    double t_ideal =
        static_cast<double>(spec.iterations) / dedicated_tpt;
    // Shared projection: time elapsed so far plus the remaining work
    // at the dedicated rate (the standard optimistic projection).
    double t_shared = (view_->now() - spec.submit_time) +
                      view_->remaining_iterations(id) / dedicated_tpt;
    return t_shared / std::max(t_ideal, 1e-9);
}

SchedulerDecision
ThemisScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);

    // Lease semantics: a running job keeps its GPUs until it finishes;
    // freed GPUs are auctioned to the waiting jobs with the worst
    // finish-time fairness. A waiting job whose rho is far beyond a
    // running job's can reclaim that job's lease (fairness trigger).
    // Each job's rho is taken once, as its sort key; the lease loop
    // reuses it.
    struct Ranked
    {
        double rho;
        JobId id;
        GpuCount lease = 0;  ///< GPUs a running job holds in the decision
    };
    SchedulerDecision decision;
    GpuCount free = view_->total_gpus();
    std::vector<Ranked> waiting;
    std::vector<Ranked> running;
    for (JobId id : view_->active_jobs()) {
        if (view_->remaining_iterations(id) <= 0.0)
            continue;
        const Ranked job{finish_time_fairness(id), id};
        if (view_->current_gpus(id) > 0)
            running.push_back(job);
        else
            waiting.push_back(job);
    }
    for (Ranked &job : running) {
        job.lease = view_->spec(job.id).requested_gpus;
        decision.set(job.id, job.lease);
        free -= job.lease;
    }

    std::sort(waiting.begin(), waiting.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.rho != b.rho)
                      return a.rho > b.rho;
                  return a.id < b.id;
              });
    std::sort(running.begin(), running.end(),
              [](const Ranked &a, const Ranked &b) {
                  if (a.rho != b.rho)
                      return a.rho < b.rho;  // best-treated first
                  return a.id < b.id;
              });

    constexpr double kPreemptionFactor = 3.0;
    std::size_t victim = 0;
    for (const Ranked &job : waiting) {
        GpuCount req = view_->spec(job.id).requested_gpus;
        // Reclaim leases from the best-treated running jobs while this
        // starving job is markedly worse off.
        while (req > free && victim < running.size() &&
               job.rho > kPreemptionFactor * running[victim].rho) {
            free += running[victim].lease;
            decision.set(running[victim].id, 0);
            ++victim;
        }
        if (req <= free) {
            decision.set(job.id, req);
            free -= req;
        } else {
            decision.set(job.id, 0);
        }
    }
    return decision;
}

}  // namespace ef
