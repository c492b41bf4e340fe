/**
 * @file
 * Elastic resource allocation (paper §4.2, Algorithm 2).
 *
 * After admission reserves each SLO job's minimum satisfactory share,
 * leftover GPUs are handed out greedily by *marginal return*: the
 * reduction in total GPU time obtained by giving a job one more
 * allocation step in the current slot (worker counts being powers of
 * two, a step doubles the current count). Only steps that strictly
 * improve the job's finish time are considered (Algorithm 2, line 10).
 * Best-effort jobs (deadline = infinity, §4.4) join the same queue
 * after SLO minimum shares: starting an idle best-effort job has
 * unbounded return (it turns idle GPUs into progress), and growing a
 * running one is priced by the same GPU-time delta, computed
 * analytically since its horizon is unbounded.
 *
 * Theorem 2: under concave scaling curves this greedy is optimal for
 * the objective (4)-(7) — minimize total GPU time subject to meeting
 * all deadlines and leaving no allocatable GPU idle. Property tests
 * check it against brute force on small instances.
 */
#ifndef EF_CORE_ALLOCATOR_H_
#define EF_CORE_ALLOCATOR_H_

#include <vector>

#include "core/admission.h"

namespace ef {

/** Final decision of one scheduling pass, indexed like its inputs. */
struct AllocationOutcome
{
    /** GPUs to hand ledger.jobs[i] *now* (slot 0); 0 = suspended. */
    std::vector<GpuCount> slo_gpus;
    /** Full plan of ledger.jobs[i] (its feasibility witness). */
    std::vector<SlotPlan> plans;
    /** GPUs to hand best_effort_jobs[j] now. */
    std::vector<GpuCount> best_effort_gpus;
    /** GPUs left idle because no job could benefit from more. */
    GpuCount unallocated = 0;
};

/**
 * Algorithm 2, starting from the minimum satisfactory shares in
 * @p ledger (run_admission's, or the scheduler's refresh). Its rows
 * must all carry finite deadlines, one plan each, and its availability
 * must be what the plans leave free; it is used as it stands, never
 * rebuilt from the plans. @p best_effort_jobs carry deadline =
 * infinity.
 */
AllocationOutcome
run_allocation(const PlannerConfig &config, Time now,
               const ShareLedger &ledger,
               const std::vector<PlanningJob> &best_effort_jobs);

/**
 * Direct transcription of Algorithm 2: rebuilds every candidate on
 * every greedy iteration. Kept as the oracle for the equivalence fuzz
 * (tests/test_allocator_equivalence.cc) — run_allocation must produce
 * an identical outcome on any input. It recomputes availability from
 * the ledger's plans and dies unless that equals the ledger's. Not for
 * production use: it is O(iterations x jobs x horizon) where the
 * incremental version only recomputes candidates an applied winner
 * invalidated.
 */
AllocationOutcome
run_allocation_reference(const PlannerConfig &config, Time now,
                         const ShareLedger &ledger,
                         const std::vector<PlanningJob> &best_effort_jobs);

}  // namespace ef

#endif  // EF_CORE_ALLOCATOR_H_
