#include "sched/elastic_flow.h"

#include "common/check.h"
#include "common/logging.h"
#include <algorithm>

#include "recover/fields.h"

#include "sched/planning_util.h"

namespace ef {

PlannerConfig
ElasticFlowScheduler::planner_config() const
{
    EF_CHECK(view_ != nullptr);
    return planner_config_for(*view_, config_.slot_seconds,
                              config_.direction);
}

bool
ElasticFlowScheduler::admit(const JobSpec &job)
{
    EF_CHECK(view_ != nullptr);
    if (job.is_best_effort() || job.has_soft_deadline())
        return true;  // no admission gate for non-guaranteed jobs (§4.4)
    PlanningMargin margin{config_.admission_margin,
                          config_.overhead_allowance_s};
    // Admission is checked against capacity minus the failure reserve
    // (§4.4 "Node failures"); allocation still spends every live GPU.
    PlannerConfig config = planner_config();
    config.total_gpus = std::max<GpuCount>(
        1, config.total_gpus - config_.failure_headroom_gpus);
    if (!admission_feasible(*view_, config, margin, job,
                            /*fixed_size=*/false, &demoted_)) {
        return false;
    }
    if (policy_ != nullptr) {
        // Operator veto (quota/pricing) after feasibility (§4.4).
        ScalingCurve curve = view_->curve_for(job);
        GpuCount baseline =
            std::max(job.requested_gpus, curve.min_workers());
        Time duration = static_cast<double>(job.iterations) /
                        curve.throughput(baseline);
        return policy_->approve(job, view_->now(), duration);
    }
    return true;
}

SchedulerDecision
ElasticFlowScheduler::allocate()
{
    EF_CHECK(view_ != nullptr);
    PlanningMargin margin{config_.admission_margin,
                          config_.overhead_allowance_s};
    std::vector<JobId> hard_parked;
    SchedulerDecision decision = elastic_allocate(
        *view_, planner_config(), margin,
        /*fixed_size=*/false, &replan_failures_, &demoted_, &hard_parked);
    if (view_->fault_epoch() > 0) {
        // A hard-SLO job whose deadline no longer fits after a fault
        // shrank capacity is demoted to best-effort, exactly once. On
        // a healthy cluster parked jobs keep the legacy
        // relax-and-retry treatment (overhead drift, not failures).
        for (JobId id : hard_parked) {
            if (demoted_.insert(id).second) {
                fresh_demotions_.push_back(id);
                EF_INFO("job " << id
                               << " deadline unmeetable after failure; "
                                  "demoted to best-effort");
            }
        }
    }
    return decision;
}

std::vector<JobId>
ElasticFlowScheduler::take_demotions()
{
    std::vector<JobId> fresh = std::move(fresh_demotions_);
    fresh_demotions_.clear();
    return fresh;
}

void
ElasticFlowScheduler::encode_recovery_state(std::string *out) const
{
    *out = recover::encode(replan_failures_, demoted_, fresh_demotions_);
}

bool
ElasticFlowScheduler::decode_recovery_state(const std::string &blob)
{
    return recover::decode(blob, replan_failures_, demoted_,
                           fresh_demotions_)
        .ok();
}

}  // namespace ef
