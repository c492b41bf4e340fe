#include "sched/pollux.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"

namespace ef {

SchedulerDecision
PolluxScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    std::vector<JobId> jobs;
    for (JobId id : view_->active_jobs()) {
        if (view_->remaining_iterations(id) > 0.0)
            jobs.push_back(id);
    }

    std::vector<GpuCount> alloc(jobs.size(), 0);
    GpuCount free = view_->total_gpus();

    // Proportional-fair greedy: repeatedly take the step with the
    // highest delta log(throughput) per GPU; starting an idle job
    // dominates any growth step.
    while (free > 0) {
        double best_gain = 0.0;
        std::size_t best = jobs.size();
        GpuCount best_delta = 0;
        GpuCount best_next = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const ScalingCurve &curve = view_->curve(jobs[i]);
            GpuCount g = alloc[i];
            GpuCount gn = curve.next_step(g);
            if (gn == 0 || gn - g > free)
                continue;
            double gain;
            if (g == 0) {
                gain = std::numeric_limits<double>::infinity();
            } else {
                gain = (std::log(curve.throughput(gn)) -
                        std::log(curve.throughput(g))) /
                       static_cast<double>(gn - g);
            }
            if (best == jobs.size() || gain > best_gain) {
                best_gain = gain;
                best = i;
                best_delta = gn - g;
                best_next = gn;
            }
        }
        if (best == jobs.size())
            break;
        alloc[best] = best_next;
        free -= best_delta;
    }

    SchedulerDecision decision;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        decision.set(jobs[i], alloc[i]);
    return decision;
}

}  // namespace ef
