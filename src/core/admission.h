/**
 * @file
 * Admission control via Minimum Satisfactory Share (paper §4.1,
 * Algorithm 1).
 *
 * The minimum satisfactory share of a job is the least allocation
 * profile that meets its deadline given what earlier-deadline jobs
 * already reserved. Admission sorts jobs by deadline and progressively
 * fills each one: it raises a per-job GPU level j (a power of two) and
 * assigns x_i(t) = usable(min(j, available(t))) in each slot until the
 * job's remaining iterations fit before its deadline. A new job is
 * admitted iff this succeeds for *every* job with the new job included
 * — i.e. admitting it cannot break any already-admitted deadline.
 */
#ifndef EF_CORE_ADMISSION_H_
#define EF_CORE_ADMISSION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/allocation_plan.h"

namespace ef {

/** Which slots a fill occupies when a job needs fewer than all. */
enum class FillDirection {
    kEarliest,  ///< run as soon as possible (frees GPUs early; default)
    kLatest,    ///< run as late as possible (paper's Algorithm 1 order)
};

/** Static parameters of one planning pass. */
struct PlannerConfig
{
    GpuCount total_gpus = 0;
    Time slot_seconds = 300.0;
    FillDirection direction = FillDirection::kEarliest;
    /** Upper bound on planning horizon slots (guards runaway input). */
    int max_slots = 1 << 16;
};

/** Tolerance on "remaining iterations satisfied" tests of a fill. */
inline constexpr double kFillEpsilon = 1e-7;

/**
 * Seconds a fill window offers at full use: the whole slots
 * [start_slot, slots - 1) plus the usable fraction of the final slot.
 * Requires start_slot < horizon.slots.
 */
inline double
fill_window_seconds(const PlanHorizon &horizon, Time slot_seconds,
                    int start_slot)
{
    return static_cast<double>(horizon.slots - start_slot - 1) *
               slot_seconds +
           slot_seconds * horizon.last_weight;
}

/**
 * Level-skip bound (DESIGN.md §10): true when a fill level whose every
 * slot runs at most @p peak_throughput over @p window_seconds provably
 * leaves more than kFillEpsilon of @p remaining_iterations undone, so
 * scanning it would fail. The 1e-9 relative slack covers the fill's
 * accumulated rounding over up to 2^16 slots.
 */
inline bool
level_cannot_finish(double peak_throughput, double window_seconds,
                    double remaining_iterations)
{
    return peak_throughput * window_seconds * (1.0 + 1e-9) <
           remaining_iterations * (1.0 - 1e-9) - kFillEpsilon;
}

/**
 * ProgressiveFilling for one job: the smallest GPU level whose
 * per-slot allocation min(level, available) finishes
 * @p remaining_iterations of a job scaling by @p curve within the
 * horizon (the final slot contributes only its usable fraction). Slots
 * [0, start_slot) are untouched (used by Algorithm 2's re-fill with a
 * fixed slot-0 allocation and an adjusted remaining-iterations value).
 * @p available lists free GPUs per slot and must cover horizon.slots
 * entries.
 *
 * @return the plan (length <= horizon.slots, trailing zeros trimmed),
 *         or nullopt when even the maximum useful level cannot meet
 *         the deadline.
 *
 * A level is scanned only if the level-skip bound allows it to
 * succeed: every slot of level L runs a level already tried (or
 * nothing), so the running maximum throughput over the levels tried
 * times the window's seconds bounds what L can complete. A skipped
 * level would have failed its scan, so plans and verdicts equal
 * progressive_fill_reference's exactly.
 *
 * When @p cost is non-null it is incremented by one work unit per
 * slot-fill operation the unbounded walk performs (across every level
 * attempt); a skipped level is charged the slots - start_slot units
 * its failed scan would have cost. The units are a deterministic
 * measure of planning effort, identical to the reference's.
 */
std::optional<SlotPlan>
progressive_fill(const ScalingCurve &curve, double remaining_iterations,
                 const std::vector<GpuCount> &available,
                 const PlanHorizon &horizon, const PlannerConfig &config,
                 int start_slot = 0, std::uint64_t *cost = nullptr);

/**
 * The unbounded walk: every level up to the one that succeeds is
 * scanned slot by slot. Same contract as progressive_fill; kept as the
 * oracle for the level-skip bound (tests/test_admission.cc and
 * run_allocation_reference).
 */
std::optional<SlotPlan>
progressive_fill_reference(const ScalingCurve &curve,
                           double remaining_iterations,
                           const std::vector<GpuCount> &available,
                           const PlanHorizon &horizon,
                           const PlannerConfig &config, int start_slot = 0,
                           std::uint64_t *cost = nullptr);

/**
 * The minimum satisfactory shares reserved so far: Algorithm 1's
 * result and the state Algorithm 2 starts from (DESIGN.md §5). Every
 * planner pass that reserves shares — run_admission, the per-round
 * refresh and the service's admission drain — reserves through one
 * ledger, and run_allocation takes it as it stands.
 */
struct ShareLedger
{
    /** SLO rows in the order they were reserved. */
    std::vector<PlanningJob> jobs;
    /** plans[i] is the minimum satisfactory share of jobs[i]. */
    std::vector<SlotPlan> plans;
    /** Free GPUs per slot, total_gpus minus every plan, over at least
     *  every row's horizon (later slots are implicitly total_gpus). */
    std::vector<GpuCount> available;

    /**
     * ProgressiveFilling of @p job over @p horizon against the free
     * GPUs left (grown to the horizon with config.total_gpus first).
     * On success the fill is subtracted, @p job is moved in as the
     * last row with its plan, and true is returned. On failure the
     * ledger is left exactly as it was, @p job is not moved from, and
     * false is returned, so the caller can relax the job and retry.
     * @p cost as in progressive_fill.
     */
    bool reserve(PlanningJob &&job, const PlanHorizon &horizon,
                 const PlannerConfig &config,
                 std::uint64_t *cost = nullptr);
};

/** Result of Algorithm 1 over a job set. */
struct AdmissionOutcome
{
    bool feasible = false;
    /** The jobs in deadline order with their minimum satisfactory
     *  shares; complete iff feasible. */
    ShareLedger ledger;
    /**
     * Planning cost of this pass in deterministic work units (one unit
     * per slot touched by progressive filling, summed over all level
     * attempts of all jobs). A pure function of the input — never of
     * wall clock — so cost-based policies (the service watchdog)
     * replay identically.
     */
    std::uint64_t cost = 0;
};

/**
 * Algorithm 1: feasibility of a whole job set (admitted jobs plus a
 * candidate), all with deadlines. Jobs are sorted by deadline and
 * reserved in that order, so the outcome's ledger rows are in deadline
 * order, not in the order of @p jobs. Best-effort jobs must not be
 * passed here — they are never admission-controlled.
 */
AdmissionOutcome run_admission(const PlannerConfig &config, Time now,
                               std::vector<PlanningJob> jobs);

/**
 * Closed-form feasibility for *linear* curves (Theorem 1): with jobs
 * sorted by deadline, feasible iff for every prefix the required GPU
 * time fits before the prefix deadline. Used by tests to validate
 * run_admission and exposed for documentation value.
 */
bool linear_feasibility(GpuCount total_gpus, Time now,
                        const std::vector<PlanningJob> &jobs);

}  // namespace ef

#endif  // EF_CORE_ADMISSION_H_
