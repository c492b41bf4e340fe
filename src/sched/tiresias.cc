#include "sched/tiresias.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.h"

namespace ef {

int
TiresiasScheduler::queue_of(double attained_gpu_seconds) const
{
    int q = 0;
    for (double threshold : thresholds_) {
        if (attained_gpu_seconds < threshold)
            return q;
        ++q;
    }
    return q;
}

SchedulerDecision
TiresiasScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    // 2D-LAS: queue index first (less attained service wins), FIFO by
    // submission inside a queue. One (queue, submit time, id) key per
    // job, so the sort does no lookups.
    const std::vector<JobId> active = view_->active_jobs();
    std::vector<std::tuple<int, Time, JobId>> order;
    order.reserve(active.size());
    for (JobId id : active) {
        order.emplace_back(queue_of(view_->attained_gpu_seconds(id)),
                           view_->spec(id).submit_time, id);
    }
    std::sort(order.begin(), order.end());

    SchedulerDecision decision;
    GpuCount free = view_->total_gpus();
    for (const auto &[queue, submitted, id] : order) {
        if (view_->remaining_iterations(id) <= 0.0)
            continue;
        GpuCount req = view_->spec(id).requested_gpus;
        if (req <= free) {
            decision.set(id, req);
            free -= req;
        } else {
            decision.set(id, 0);
        }
    }
    return decision;
}

}  // namespace ef
