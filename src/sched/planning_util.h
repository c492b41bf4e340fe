/**
 * @file
 * Shared planning helpers for deadline-aware schedulers.
 *
 * ElasticFlow and the Fig. 9 ablation variants (EDF + Admission
 * Control, EDF + Elastic Scaling) share the same building blocks:
 * turning the cluster view into PlanningJobs, checking a candidate's
 * admissibility (Algorithm 1), and computing a full elastic allocation
 * (Algorithm 1 refresh + Algorithm 2). Chronus reuses the same pieces
 * with fixed-size curves. Failure-aware policies additionally pass the
 * set of jobs already demoted to best-effort (they stop reserving SLO
 * capacity) and collect the hard-SLO jobs newly parked by a refresh.
 *
 * Every call builds its job lists afresh from the view: the job set or
 * the clock changes between any two calls of a run, so a cache of the
 * lists keyed by that state never hits.
 */
#ifndef EF_SCHED_PLANNING_UTIL_H_
#define EF_SCHED_PLANNING_UTIL_H_

#include <optional>
#include <set>
#include <vector>

#include "core/admission.h"
#include "core/allocator.h"
#include "sched/scheduler.h"

namespace ef {

/**
 * Safety margin applied when planning SLO jobs: remaining work is
 * inflated by the relative factor, plus an absolute allowance that
 * covers the scaling-overhead pauses a job accrues (expressed as
 * seconds of lost full-speed progress, so short jobs are protected
 * too).
 */
struct PlanningMargin
{
    double relative = 0.0;
    double overhead_allowance_s = 0.0;

    /** Inflated remaining iterations for a job with @p curve. */
    double inflate(double remaining, const ScalingCurve &curve) const;
};

/** Planner view of one active job; margin inflates remaining work. */
PlanningJob to_planning_job(const ClusterView &view, JobId id,
                            const PlanningMargin &margin);

/**
 * Planner view of an active job with its curve pinned to a fixed GPU
 * count (server-centric baselines).
 */
PlanningJob to_fixed_planning_job(const ClusterView &view, JobId id,
                                  const PlanningMargin &margin);

/** Default planner config for a view. */
PlannerConfig planner_config_for(const ClusterView &view,
                                 Time slot_seconds,
                                 FillDirection direction);

/**
 * Admission check (Algorithm 1) of @p candidate against all active SLO
 * jobs. With @p fixed_size, jobs use their requested GPU counts
 * (Chronus semantics); otherwise full elastic curves. Jobs in
 * @p exclude (demoted ones) reserve nothing, like best-effort and
 * soft-deadline jobs.
 */
bool admission_feasible(const ClusterView &view,
                        const PlannerConfig &config,
                        const PlanningMargin &margin,
                        const JobSpec &candidate, bool fixed_size,
                        const std::set<JobId> *exclude = nullptr);

/**
 * Admission check matching *plain EDF allocation* (Fig. 9's
 * "EDF + Admission Control" variant): in deadline order, each job
 * greedily fills as many GPUs as still help it; the candidate is
 * admitted iff every job then meets its deadline. This mirrors what
 * the EDF allocator will actually do, unlike the minimum-share check,
 * which assumes elastic right-sizing.
 */
bool edf_admission_feasible(const ClusterView &view,
                            const PlannerConfig &config,
                            const JobSpec &candidate);

/** Result of the per-round minimum-share refresh (Algorithm 1 rerun). */
struct MinShareRefresh
{
    /** Feasible SLO jobs in reservation order, deadlines possibly
     *  relaxed in place, with their shares and the GPUs left free. */
    ShareLedger ledger;
    /** Jobs whose deadline could not be met even relaxed; they run on
     *  as best-effort (deadline rewritten to infinity). */
    std::vector<PlanningJob> parked;
};

/**
 * Refresh minimum satisfactory shares for @p slo in deadline order
 * (hard before soft), reserving each into the refresh's ledger and
 * relaxing slipped deadlines in growing steps so a
 * drifted job finishes as close to its original deadline as the
 * cluster allows. With @p park_infeasible_hard (the post-fault
 * demotion rule), a hard job whose original deadline cannot be met is
 * parked immediately instead of relaxed — the caller then demotes it
 * to best-effort rather than letting it silently miss. Exposed
 * separately from elastic_allocate so tests can assert relaxation
 * invariants (a relaxed job's reservation never reaches past its
 * relaxed horizon). When @p cost is non-null it accumulates the
 * deterministic planning work units spent by every progressive fill in
 * the refresh (see AdmissionOutcome::cost), which the service-mode
 * watchdog uses as its replayable time budget.
 */
MinShareRefresh refresh_min_shares(const PlannerConfig &config, Time now,
                                   std::vector<PlanningJob> slo,
                                   int *replan_failures,
                                   bool park_infeasible_hard = false,
                                   std::uint64_t *cost = nullptr);

/**
 * Full elastic allocation pass: refresh minimum satisfactory shares
 * for active SLO jobs in deadline order, then run Algorithm 2 with
 * best-effort jobs appended. Jobs whose deadline became infeasible
 * (possible without admission control, or through overhead drift) are
 * kept running under a progressively relaxed deadline and counted in
 * @p replan_failures. With @p fixed_size, every job's curve is pinned
 * to its requested GPU count. Jobs in @p demoted plan as best-effort
 * regardless of their spec; hard-SLO jobs the refresh had to park
 * (deadline unmeetable even relaxed) are appended to @p hard_parked
 * when given.
 */
SchedulerDecision elastic_allocate(const ClusterView &view,
                                   const PlannerConfig &config,
                                   const PlanningMargin &margin,
                                   bool fixed_size,
                                   int *replan_failures,
                                   const std::set<JobId> *demoted = nullptr,
                                   std::vector<JobId> *hard_parked =
                                       nullptr);

}  // namespace ef

#endif  // EF_SCHED_PLANNING_UTIL_H_
