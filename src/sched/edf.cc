#include "sched/edf.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.h"

namespace ef {

std::string
EdfScheduler::name() const
{
    switch (variant_) {
      case EdfVariant::kPlain: return "edf";
      case EdfVariant::kWithAdmission: return "edf+admission";
      case EdfVariant::kWithElastic: return "edf+elastic";
    }
    return "edf";
}

bool
EdfScheduler::admit(const JobSpec &job)
{
    if (variant_ != EdfVariant::kWithAdmission)
        return true;
    if (job.is_best_effort() || job.has_soft_deadline())
        return true;
    EF_CHECK(view_ != nullptr);
    PlannerConfig config =
        planner_config_for(*view_, 300.0, FillDirection::kEarliest);
    return edf_admission_feasible(*view_, config, job);
}

SchedulerDecision
EdfScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    if (variant_ == EdfVariant::kWithElastic) {
        PlannerConfig config =
            planner_config_for(*view_, 300.0, FillDirection::kEarliest);
        return elastic_allocate(*view_, config, PlanningMargin{0.02, 60.0},
                                /*fixed_size=*/false, &replan_failures_);
    }

    // Plain EDF: deadline order, each job takes as many GPUs as still
    // help it, best-effort jobs last in submission order. One
    // (deadline, submit time, id) key per job, so the sort does no
    // lookups.
    const std::vector<JobId> active = view_->active_jobs();
    std::vector<std::tuple<Time, Time, JobId>> order;
    order.reserve(active.size());
    for (JobId id : active) {
        const JobSpec &spec = view_->spec(id);
        order.emplace_back(spec.deadline, spec.submit_time, id);
    }
    std::sort(order.begin(), order.end());

    SchedulerDecision decision;
    GpuCount free = view_->total_gpus();
    for (const auto &[deadline, submitted, id] : order) {
        if (view_->remaining_iterations(id) <= 0.0)
            continue;
        GpuCount g = view_->curve(id).usable(free);
        decision.set(id, g);
        free -= g;
    }
    return decision;
}

}  // namespace ef
