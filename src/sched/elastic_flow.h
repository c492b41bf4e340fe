/**
 * @file
 * The ElasticFlow scheduler: the paper's contribution assembled from
 * the core algorithms.
 *
 * On submission, an SLO job is admitted iff Algorithm 1 finds minimum
 * satisfactory shares for it and every already-admitted job (§4.1);
 * best-effort jobs are always admitted. On every scheduling event the
 * minimum shares are recomputed from the jobs' remaining work and
 * Algorithm 2 distributes the remaining GPUs by marginal return, with
 * best-effort jobs after SLO minimum shares (§4.2, §4.4). Worker
 * counts are powers of two and placement uses best-fit with buddy
 * defragmentation, so the compact-placement scaling curve used by the
 * planner is always achievable (§4.3).
 */
#ifndef EF_SCHED_ELASTIC_FLOW_H_
#define EF_SCHED_ELASTIC_FLOW_H_

#include <set>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/allocator.h"
#include "sched/admission_policy.h"
#include "sched/planning_util.h"
#include "sched/scheduler.h"

namespace ef {

/** Tunables of the ElasticFlow policy. */
struct ElasticFlowConfig
{
    /** Planning slot length (the paper's average scheduling interval
     *  is ~23 minutes; plans are also refreshed on every event). */
    Time slot_seconds = 600.0;

    /**
     * Safety margin: remaining iterations are inflated by this factor
     * during planning so that modelled scaling/migration overheads
     * cannot turn an admitted job into a deadline miss.
     */
    double admission_margin = 0.05;

    /**
     * Absolute planning allowance (seconds of full-speed progress)
     * covering the checkpoint/restore pauses a job accrues over its
     * lifetime; protects short jobs where the relative margin is tiny.
     */
    double overhead_allowance_s = 180.0;

    /** Slot preference when a job needs fewer slots than available. */
    FillDirection direction = FillDirection::kEarliest;

    /**
     * GPUs withheld from planning as failure headroom (§4.4 "Node
     * failures"): admission guarantees are computed against capacity
     * minus this reserve, so a failed server's worth of GPUs can be
     * absorbed without breaking admitted deadlines.
     */
    GpuCount failure_headroom_gpus = 0;
};

/** See file comment. */
class ElasticFlowScheduler : public Scheduler
{
  public:
    ElasticFlowScheduler() = default;
    explicit ElasticFlowScheduler(ElasticFlowConfig config)
        : config_(config)
    {}

    std::string name() const override { return "elasticflow"; }

    /**
     * Attach an operator policy (quota/pricing, §4.4) applied after
     * feasibility but before admission — the paper's "before line 9
     * of Algorithm 1" hook. Non-owning; may be null.
     */
    void set_admission_policy(AdmissionPolicy *policy)
    {
        policy_ = policy;
    }

    bool admit(const JobSpec &job) override;
    SchedulerDecision allocate() override;

    Time reschedule_interval() const override
    {
        return config_.slot_seconds;
    }
    PlacementStrategy placement_strategy() const override
    {
        return PlacementStrategy::kBestFitCompact;
    }
    bool allow_migration() const override { return true; }

    /**
     * Hard-SLO jobs whose deadline became unmeetable after a fault
     * shrank the cluster (view_->fault_epoch() > 0): each is demoted
     * to best-effort exactly once and reported here exactly once.
     */
    std::vector<JobId> take_demotions() override;

    /**
     * Crash recovery (DESIGN.md §12): the state carried across rounds
     * is the replan-failure count and the exactly-once demotion
     * bookkeeping.
     */
    void encode_recovery_state(std::string *out) const override;
    bool decode_recovery_state(const std::string &blob) override;

  private:
    PlannerConfig planner_config() const;

    ElasticFlowConfig config_;
    AdmissionPolicy *policy_ = nullptr;
    /** Every job ever demoted (exactly-once guard). */
    std::set<JobId> demoted_;
    /** Demotions not yet drained by take_demotions(). */
    std::vector<JobId> fresh_demotions_;
};

}  // namespace ef

#endif  // EF_SCHED_ELASTIC_FLOW_H_
