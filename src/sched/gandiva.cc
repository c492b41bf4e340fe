#include "sched/gandiva.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "recover/fields.h"

namespace ef {

SchedulerDecision
GandivaScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    // Least-recently-served first: suspended jobs starve the longest
    // and therefore get the next slice; ties go to earlier submission,
    // then to the lower id. One sort key per job (never-served jobs
    // count as served at -1), so the sort does no lookups.
    const std::vector<JobId> active = view_->active_jobs();
    std::vector<std::tuple<Time, Time, JobId>> order;
    order.reserve(active.size());
    for (JobId id : active) {
        const auto served = last_served_.find(id);
        order.emplace_back(
            served != last_served_.end() ? served->second : -1.0,
            view_->spec(id).submit_time, id);
    }
    std::sort(order.begin(), order.end());

    SchedulerDecision decision;
    GpuCount free = view_->total_gpus();
    for (const auto &[served, submitted, id] : order) {
        if (view_->remaining_iterations(id) <= 0.0)
            continue;
        GpuCount req = view_->spec(id).requested_gpus;
        if (req <= free) {
            decision.set(id, req);
            free -= req;
            last_served_[id] = view_->now();
        } else {
            decision.set(id, 0);
        }
    }
    return decision;
}

void
GandivaScheduler::encode_recovery_state(std::string *out) const
{
    *out = recover::encode(replan_failures_, last_served_);
}

bool
GandivaScheduler::decode_recovery_state(const std::string &blob)
{
    return recover::decode(blob, replan_failures_, last_served_).ok();
}

}  // namespace ef
