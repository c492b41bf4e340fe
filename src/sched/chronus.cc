#include "sched/chronus.h"

#include "common/check.h"

namespace ef {

bool
ChronusScheduler::admit(const JobSpec &job)
{
    if (job.is_best_effort() || job.has_soft_deadline())
        return true;
    EF_CHECK(view_ != nullptr);
    PlannerConfig config =
        planner_config_for(*view_, 600.0, FillDirection::kEarliest);
    return admission_feasible(*view_, config, PlanningMargin{0.02, 60.0},
                              job, /*fixed_size=*/true);
}

SchedulerDecision
ChronusScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    PlannerConfig config =
        planner_config_for(*view_, 600.0, FillDirection::kEarliest);
    return elastic_allocate(*view_, config, PlanningMargin{0.02, 60.0},
                            /*fixed_size=*/true, &replan_failures_);
}

}  // namespace ef
