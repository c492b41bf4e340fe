/**
 * @file
 * Time-slotted allocation plans.
 *
 * Algorithms 1 and 2 (paper §4.1-4.2) reason about x_i(t): the number
 * of GPUs job i holds in time slot t. A SlotPlan is that vector for one
 * job, with slot 0 starting "now". The simulator runs in continuous
 * time; plans are recomputed on every scheduling event, so only slot 0
 * of a plan is ever executed — the tail exists to prove feasibility
 * (deadlines can still be met) and to price marginal returns.
 */
#ifndef EF_CORE_ALLOCATION_PLAN_H_
#define EF_CORE_ALLOCATION_PLAN_H_

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "core/scaling_curve.h"

namespace ef {

/** Per-slot GPU counts for one job, starting at the current slot. */
struct SlotPlan
{
    std::vector<GpuCount> gpus;

    /** Allocation in slot @p t (0 beyond the stored horizon). */
    GpuCount at(int t) const
    {
        EF_CHECK(t >= 0);
        if (t >= static_cast<int>(gpus.size()))
            return 0;
        return gpus[static_cast<std::size_t>(t)];
    }

    int horizon() const { return static_cast<int>(gpus.size()); }

    /** Total GPU-seconds the plan consumes. */
    double gpu_seconds(Time slot_seconds) const;

    /** Drop trailing zero slots (canonical form). */
    void trim();

    bool operator==(const SlotPlan &other) const = default;
};

/** Iterations the plan completes for a job with @p curve. */
double plan_iterations(const ScalingCurve &curve, const SlotPlan &plan,
                       Time slot_seconds);

/**
 * Seconds from now until @p remaining_iterations complete under the
 * plan (fractional within the finishing slot); kTimeInfinity when the
 * plan never completes them.
 */
Time plan_finish_seconds(const ScalingCurve &curve, const SlotPlan &plan,
                         double remaining_iterations, Time slot_seconds);

/** One job as the planner sees it. */
struct PlanningJob
{
    JobId id = kInvalidJob;
    ScalingCurve curve;
    double remaining_iterations = 0.0;
    Time deadline = kTimeInfinity;  ///< absolute; infinity = best effort

    /**
     * Soft-deadline jobs (§4.4) yield to hard ones: they receive a
     * minimum satisfactory share only after every hard job has one,
     * and fall back to best-effort scheduling instead of being
     * dropped when their deadline cannot be met.
     */
    bool soft = false;

    bool best_effort() const { return is_unbounded(deadline); }

    /** Persistent state (recover/fields.h). */
    template <class V>
    void
    fields(V &v)
    {
        v(id, remaining_iterations, deadline);
        v.journal(curve, soft);
        v.after_decode([this] { return remaining_iterations >= 0.0; });
    }
};

/**
 * Number of whole slots available to a job before its deadline, seen
 * from @p now: floor((deadline - now) / slot_seconds), clamped to
 * [0, max_slots]. Using floor is conservative — the planner never
 * counts a partial final slot, so plan feasibility implies deadline
 * feasibility in continuous time.
 */
int deadline_slots(Time now, Time deadline, Time slot_seconds,
                   int max_slots);

/**
 * Planning horizon of one job: the number of slots up to its deadline
 * plus the usable fraction of the final slot. Replans happen at
 * arbitrary (non-slot-aligned) times, so the final slot is generally
 * partial; accounting its exact fraction keeps the plannable time
 * equal to (deadline - now) and prevents quantization from eroding a
 * previously admitted job's feasibility.
 */
struct PlanHorizon
{
    int slots = 0;            ///< ceil((deadline - now) / slot_seconds)
    double last_weight = 1.0; ///< usable fraction of the final slot
};

PlanHorizon plan_horizon(Time now, Time deadline, Time slot_seconds,
                         int max_slots);

}  // namespace ef

#endif  // EF_CORE_ALLOCATION_PLAN_H_
