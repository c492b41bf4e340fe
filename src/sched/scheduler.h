/**
 * @file
 * The scheduler abstraction the simulator drives, plus the factory for
 * every policy evaluated in the paper.
 *
 * A scheduler sees the cluster through ClusterView (job specs, scaling
 * curves, progress, attained service) and makes two kinds of
 * decisions: an admission verdict when a job is submitted, and — on
 * every scheduling event (arrival, completion, periodic tick) — the
 * desired GPU count for each active job. Concrete GPU selection is the
 * placement manager's problem; a scheduler only chooses counts and its
 * placement strategy, mirroring the paper's decoupling of placement
 * from admission control and resource allocation (§4.3).
 */
#ifndef EF_SCHED_SCHEDULER_H_
#define EF_SCHED_SCHEDULER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "core/scaling_curve.h"
#include "workload/job.h"

namespace ef {

/** Read-only view of cluster and job state offered to schedulers. */
class ClusterView
{
  public:
    virtual ~ClusterView() = default;

    virtual GpuCount total_gpus() const = 0;
    virtual Time now() const = 0;

    /** Admitted jobs that have not finished (includes suspended). */
    virtual std::vector<JobId> active_jobs() const = 0;

    virtual const JobSpec &spec(JobId job) const = 0;

    /** Compact-placement scaling curve of the job on this cluster. */
    virtual const ScalingCurve &curve(JobId job) const = 0;

    /**
     * Curve for an arbitrary spec (used to evaluate a submission that
     * is not yet active, e.g. during admission control).
     */
    virtual ScalingCurve curve_for(const JobSpec &spec) const = 0;

    virtual double remaining_iterations(JobId job) const = 0;

    /** GPUs the job holds right now (0 when suspended). */
    virtual GpuCount current_gpus(JobId job) const = 0;

    /** Total GPU-seconds the job has consumed so far (Tiresias). */
    virtual double attained_gpu_seconds(JobId job) const = 0;

    /**
     * Count of capacity-affecting fault events (server crashes, GPU
     * faults) so far. 0 on a healthy cluster; a failure-aware policy
     * only re-evaluates admitted guarantees when this moved.
     */
    virtual std::uint64_t fault_epoch() const { return 0; }
};

/**
 * Desired GPU count per active job; absent means 0 (suspended). A flat
 * vector of (job, GPUs) pairs, ascending by job id, each job at most
 * once.
 */
class SchedulerDecision
{
  public:
    using Entry = std::pair<JobId, GpuCount>;

    /** Set @p job's count; a later set() of the same job wins. O(1)
     *  when jobs are set in ascending id order. */
    void
    set(JobId job, GpuCount gpus)
    {
        if (entries_.empty() || entries_.back().first < job) {
            entries_.emplace_back(job, gpus);
            return;
        }
        auto at = std::lower_bound(entries_.begin(), entries_.end(), job,
                                   by_id);
        if (at != entries_.end() && at->first == job)
            at->second = gpus;
        else
            entries_.emplace(at, job, gpus);
    }

    /** @p job's count (a binary search); 0 when it was never set. */
    GpuCount
    of(JobId job) const
    {
        auto at = std::lower_bound(entries_.begin(), entries_.end(), job,
                                   by_id);
        return at != entries_.end() && at->first == job ? at->second : 0;
    }

    /** Every (job, GPUs) set, ascending by job id. */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    static bool by_id(const Entry &e, JobId key) { return e.first < key; }

    std::vector<Entry> entries_;
};

/** Base class of all scheduling policies. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    virtual std::string name() const = 0;

    /** The simulator binds its view before the run starts. */
    void bind(const ClusterView *view) { view_ = view; }

    /**
     * Admission verdict for a submitted job. Default: admit everything
     * (only deadline-aware policies drop jobs). The candidate is NOT
     * yet part of active_jobs().
     */
    virtual bool admit(const JobSpec &job) { (void)job; return true; }

    /** Desired GPU counts for all active jobs, at a scheduling event. */
    virtual SchedulerDecision allocate() = 0;

    /** Periodic rescheduling interval; 0 = event-driven only. */
    virtual Time reschedule_interval() const { return 0.0; }

    /** How the placement manager should select GPUs for this policy. */
    virtual PlacementStrategy placement_strategy() const
    {
        return PlacementStrategy::kBestFitCompact;
    }

    /** Whether placement may migrate other jobs to repack (§4.3). */
    virtual bool allow_migration() const { return false; }

    /**
     * Times the policy found an admitted job's deadline no longer
     * satisfiable during replanning (deadline-aware policies only).
     */
    virtual int replan_failures() const { return replan_failures_; }

    /**
     * SLO jobs the policy demoted to best-effort since the last call
     * (failure-aware policies only; each job is reported exactly
     * once). The simulator drains this after every allocate().
     */
    virtual std::vector<JobId> take_demotions() { return {}; }

    /**
     * No-op, never called by the simulator: planning has a single
     * sequential code path (DESIGN.md §10). Kept only because the
     * end-to-end benchmark's forwarding scheduler (e2ebench/probe.h)
     * overrides it; goes with that benchmark's next revision.
     */
    virtual void set_planner_concurrency(int shards, int threads)
    {
        (void)shards;
        (void)threads;
    }

    /**
     * Serialize the policy state that must survive a crash (DESIGN.md
     * §12): anything carried across rounds that is reported or
     * influences future decisions and is not rebuilt from the
     * ClusterView. The default encodes the replan-failure count; a
     * policy with more such state encodes it together with the count.
     */
    virtual void encode_recovery_state(std::string *out) const;

    /**
     * Restore state captured by encode_recovery_state(). Returns false
     * when the blob is incompatible with this policy (the recovery
     * driver surfaces that as a typed state-mismatch error).
     */
    virtual bool decode_recovery_state(const std::string &blob);

  protected:
    const ClusterView *view_ = nullptr;
    /** Backs replan_failures(); counted by the planning passes. */
    int replan_failures_ = 0;
};

/**
 * Factory. Known names: "elasticflow", "edf", "edf+admission",
 * "edf+elastic", "gandiva", "tiresias", "themis", "chronus", "pollux".
 * Aborts on unknown names.
 */
std::unique_ptr<Scheduler> make_scheduler(const std::string &name);

/** All factory names, in the paper's comparison order. */
const std::vector<std::string> &all_scheduler_names();

}  // namespace ef

#endif  // EF_SCHED_SCHEDULER_H_
