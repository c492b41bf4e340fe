#include "core/allocator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ef {
namespace {

constexpr double kIterEpsilon = kFillEpsilon;
constexpr double kFinishEpsilon = 1e-9;
/** Priority of starting an idle best-effort job (always first). */
constexpr double kStartPriority = std::numeric_limits<double>::infinity();

/** GPU-seconds to finish a best-effort job at a fixed GPU count. */
double
best_effort_gpu_seconds(const PlanningJob &job, GpuCount gpus)
{
    if (gpus <= 0)
        return std::numeric_limits<double>::infinity();
    double tpt = job.curve.throughput(gpus);
    EF_CHECK(tpt > 0.0);
    return job.remaining_iterations / tpt * static_cast<double>(gpus);
}

/** A considered upgrade for one job. */
struct Candidate
{
    bool valid = false;
    double priority = 0.0;   ///< GPU-seconds saved per GPU added
    GpuCount delta = 0;      ///< extra GPUs consumed in slot 0
    SlotPlan new_plan;       ///< SLO only
    GpuCount new_gpus = 0;   ///< best-effort only
};

/** Why the last recompute produced no valid candidate. */
enum class InvalidWhy : std::uint8_t {
    kNone,        ///< candidate is valid
    kRefillFail,  ///< tail re-fill missed the deadline at every level
    kNotFaster,   ///< bump does not strictly improve the finish time
};

/**
 * Cached candidate of one job, versioned for lazy heap revalidation.
 * Every recompute bumps the epoch, so heap entries carrying an older
 * epoch are recognized as stale when popped.
 */
struct CandidateSlot
{
    Candidate cand;
    std::uint32_t epoch = 0;
    /**
     * Invalid for a reason no later availability change can cure:
     * nothing left to run, no next power-of-two step, a slot-0 delta
     * that no longer fits (slot-0 headroom only ever shrinks), or an
     * empty planning horizon. Dead jobs are skipped on recompute.
     */
    bool dead = false;
    InvalidWhy why = InvalidWhy::kNone;
    /** Current plan changed (job won) since the caches below filled. */
    bool plan_dirty = true;
    /** plan_finish_seconds of the *current* plan (valid iff !dirty). */
    Time finish_cur = 0.0;
    /** gpu_seconds of the *current* plan (valid iff !plan_dirty). */
    double cur_gpu_seconds = 0.0;
};

/** One tail slot whose availability moved when a winner was applied. */
struct SlotChange
{
    int t = 0;
    /** min(before, after) — lower bound on free GPUs across the edit. */
    GpuCount min_avail = 0;
    bool increased = false;
};

/** One marginal-return queue entry; stale when epoch lags the slot. */
struct HeapEntry
{
    double priority = 0.0;
    bool is_slo = false;
    std::uint32_t index = 0;
    std::uint32_t epoch = 0;
};

/**
 * Orders the heap exactly like the reference scan: highest priority
 * first; on ties SLO candidates beat best-effort ones (the reference
 * scans SLO jobs first and only replaces on strict improvement), and
 * within a class the lower index wins.
 */
struct EntryWorse
{
    bool operator()(const HeapEntry &a, const HeapEntry &b) const
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        if (a.is_slo != b.is_slo)
            return b.is_slo;
        return a.index > b.index;
    }
};

/**
 * progressive_fill specialized for the certificate "no tail slot can
 * clip any level": the caller proved min(available[1..slots)) >=
 * curve.max_useful(), so every fill operation would compute
 * usable(min(level, avail)) == usable(level) — the walk is a pure
 * function of (curve, remaining, horizon) and the per-level plan
 * vector never needs materializing until a level succeeds. The
 * arithmetic replicates progressive_fill's operation sequence exactly
 * (same values, same order, same epsilon test), so the returned plan
 * and the success/failure verdict are bit-identical to what the
 * general fill would produce. Earliest direction, start slot 1 (the
 * allocator's tail re-fill shape).
 */
std::optional<SlotPlan>
unclipped_refill(const ScalingCurve &curve, double remaining_iterations,
                 const PlanHorizon &horizon, Time dt)
{
    const int slots = horizon.slots;
    if (slots <= 1)
        return std::nullopt;  // start_slot 1 is already past the window
    const GpuCount max_useful = curve.max_useful();
    const double window = fill_window_seconds(horizon, dt, 1);
    for (GpuCount level = curve.min_workers();
         level != 0 && level <= max_useful;
         level = (level < max_useful ? level * 2 : 0)) {
        const GpuCount x = curve.usable(level);
        const double tpt = curve.throughput(x);
        // Every slot of this walk runs x, so tpt is the level's peak:
        // the level-skip bound rules out levels whose scan would fail.
        if (level_cannot_finish(tpt, window, remaining_iterations))
            continue;
        double remaining = remaining_iterations;
        for (int t = 1; t < slots; ++t) {
            const double cap =
                t == slots - 1 ? dt * horizon.last_weight : dt;
            remaining -= tpt * cap;
            if (remaining <= kIterEpsilon) {
                // progressive_fill's trimmed plan for this walk: x in
                // every visited slot [1, t], nothing after.
                SlotPlan plan;
                plan.gpus.assign(static_cast<std::size_t>(t) + 1, x);
                plan.gpus[0] = 0;
                return plan;
            }
        }
    }
    return std::nullopt;
}

/** The outcome of final SLO plans @p plan and best-effort counts
 *  @p be_gpus. */
AllocationOutcome
outcome_of(std::vector<SlotPlan> plan, std::vector<GpuCount> be_gpus)
{
    AllocationOutcome outcome;
    outcome.slo_gpus.reserve(plan.size());
    for (const SlotPlan &p : plan)
        outcome.slo_gpus.push_back(p.at(0));
    outcome.plans = std::move(plan);
    outcome.best_effort_gpus = std::move(be_gpus);
    return outcome;
}

/**
 * Checks Algorithm 2's inputs and returns each ledger row's planning
 * horizon; @p horizon receives the farthest (at least 1 slot).
 */
std::vector<PlanHorizon>
row_horizons(const PlannerConfig &config, Time now,
             const ShareLedger &ledger,
             const std::vector<PlanningJob> &best_effort_jobs,
             int *horizon)
{
    EF_CHECK(config.total_gpus > 0 && config.slot_seconds > 0.0);
    const std::size_t n = ledger.jobs.size();
    EF_CHECK_MSG(ledger.plans.size() == n,
                 "share ledger has " << ledger.plans.size()
                                     << " plans for " << n << " rows");
    *horizon = 1;
    std::vector<PlanHorizon> rows(n);
    for (std::size_t i = 0; i < n; ++i) {
        const PlanningJob &job = ledger.jobs[i];
        EF_CHECK_MSG(!job.best_effort(),
                     "job " << job.id << " without deadline passed as SLO");
        rows[i] = plan_horizon(now, job.deadline, config.slot_seconds,
                               config.max_slots);
        *horizon = std::max(*horizon, rows[i].slots);
        EF_CHECK(ledger.plans[i].horizon() <= rows[i].slots);
    }
    for (const PlanningJob &job : best_effort_jobs) {
        EF_CHECK_MSG(job.best_effort(),
                     "job " << job.id << " with deadline passed as "
                            << "best-effort");
    }
    return rows;
}

}  // namespace

AllocationOutcome
run_allocation_reference(const PlannerConfig &config, Time now,
                         const ShareLedger &ledger,
                         const std::vector<PlanningJob> &best_effort_jobs)
{
    const Time dt = config.slot_seconds;
    const std::vector<PlanningJob> &slo_jobs = ledger.jobs;
    int horizon = 0;
    const std::vector<PlanHorizon> slo_horizon =
        row_horizons(config, now, ledger, best_effort_jobs, &horizon);

    // Start from the minimum satisfactory shares, recomputing what
    // they leave free: the ledger's availability must agree.
    std::vector<SlotPlan> plan(ledger.plans);
    std::vector<GpuCount> available(static_cast<std::size_t>(horizon),
                                    config.total_gpus);
    for (const SlotPlan &share : plan) {
        for (int t = 0; t < share.horizon(); ++t) {
            GpuCount &a = available[static_cast<std::size_t>(t)];
            a -= share.at(t);
            EF_CHECK_MSG(a >= 0, "minimum shares exceed the cluster");
        }
    }
    std::vector<GpuCount> held = ledger.available;
    held.resize(static_cast<std::size_t>(horizon), config.total_gpus);
    EF_CHECK_MSG(available == held,
                 "share ledger's availability disagrees with its plans");
    std::vector<GpuCount> be_gpus(best_effort_jobs.size(), 0);

    // Candidate construction.
    auto slo_candidate = [&](std::size_t i) {
        Candidate cand;
        const PlanningJob &job = slo_jobs[i];
        if (job.remaining_iterations <= kIterEpsilon)
            return cand;
        GpuCount g0 = plan[i].at(0);
        GpuCount g0n = job.curve.next_step(g0);
        if (g0n == 0)
            return cand;
        GpuCount delta = g0n - g0;
        if (delta > available[0])
            return cand;
        const PlanHorizon &d = slo_horizon[i];
        if (d.slots < 1)
            return cand;

        // Re-fill the tail with the bumped slot-0 allocation, against
        // availability with this job's own reservation returned.
        std::vector<GpuCount> avail_self(available.begin(),
                                         available.end());
        for (int t = 1; t < plan[i].horizon(); ++t)
            avail_self[static_cast<std::size_t>(t)] += plan[i].at(t);

        double slot0_capacity = d.slots == 1 ? dt * d.last_weight : dt;
        double rem_after0 = job.remaining_iterations -
                            job.curve.throughput(g0n) * slot0_capacity;
        SlotPlan candidate_plan;
        if (rem_after0 <= kIterEpsilon) {
            candidate_plan.gpus = {g0n};
        } else {
            // The refilled tail always packs earliest: boosting only
            // makes sense if it pulls the finish time forward, which a
            // latest-packed tail by construction never would.
            PlannerConfig refill_config = config;
            refill_config.direction = FillDirection::kEarliest;
            auto fill = progressive_fill_reference(
                job.curve, rem_after0, avail_self, d, refill_config, 1);
            if (!fill.has_value())
                return cand;  // bump cannot keep the deadline
            candidate_plan = std::move(*fill);
            if (candidate_plan.horizon() < 1)
                candidate_plan.gpus.resize(1, 0);
            candidate_plan.gpus[0] = g0n;
        }

        Time finish_cur = plan_finish_seconds(
            job.curve, plan[i], job.remaining_iterations, dt);
        Time finish_new = plan_finish_seconds(
            job.curve, candidate_plan, job.remaining_iterations, dt);
        if (!(finish_new < finish_cur - kFinishEpsilon))
            return cand;  // Algorithm 2 line 10: must speed the job up

        cand.valid = true;
        cand.delta = delta;
        cand.priority = (plan[i].gpu_seconds(dt) -
                         candidate_plan.gpu_seconds(dt)) /
                        static_cast<double>(delta);
        cand.new_plan = std::move(candidate_plan);
        return cand;
    };

    auto be_candidate = [&](std::size_t j) {
        Candidate cand;
        const PlanningJob &job = best_effort_jobs[j];
        if (job.remaining_iterations <= kIterEpsilon)
            return cand;
        GpuCount g = be_gpus[j];
        GpuCount gn = job.curve.next_step(g);
        if (gn == 0)
            return cand;
        GpuCount delta = gn - g;
        if (delta > available[0])
            return cand;
        cand.valid = true;
        cand.delta = delta;
        cand.new_gpus = gn;
        if (g == 0) {
            cand.priority = kStartPriority;
        } else {
            cand.priority = (best_effort_gpu_seconds(job, g) -
                             best_effort_gpu_seconds(job, gn)) /
                            static_cast<double>(delta);
        }
        return cand;
    };

    // Greedy loop: hand out slot-0 GPUs to the best marginal return.
    while (available[0] > 0) {
        Candidate best;
        bool best_is_slo = false;
        std::size_t best_index = 0;
        for (std::size_t i = 0; i < slo_jobs.size(); ++i) {
            Candidate cand = slo_candidate(i);
            if (cand.valid &&
                (!best.valid || cand.priority > best.priority)) {
                best = std::move(cand);
                best_is_slo = true;
                best_index = i;
            }
        }
        for (std::size_t j = 0; j < best_effort_jobs.size(); ++j) {
            Candidate cand = be_candidate(j);
            if (cand.valid &&
                (!best.valid || cand.priority > best.priority)) {
                best = std::move(cand);
                best_is_slo = false;
                best_index = j;
            }
        }
        if (!best.valid)
            break;  // constraint (7): no job can use more GPUs

        if (best_is_slo) {
            // Return the old reservation, charge the new plan.
            for (int t = 0; t < plan[best_index].horizon(); ++t) {
                available[static_cast<std::size_t>(t)] +=
                    plan[best_index].at(t);
            }
            for (int t = 0; t < best.new_plan.horizon(); ++t) {
                GpuCount &a = available[static_cast<std::size_t>(t)];
                a -= best.new_plan.at(t);
                EF_CHECK(a >= 0);
            }
            plan[best_index] = std::move(best.new_plan);
        } else {
            available[0] -= best.delta;
            be_gpus[best_index] = best.new_gpus;
        }
    }

    AllocationOutcome outcome =
        outcome_of(std::move(plan), std::move(be_gpus));
    outcome.unallocated = available[0];
    return outcome;
}

namespace {

/*
 * Incremental formulation of the greedy's growth phase: everything
 * after run_allocation's best-effort start scan. The reference
 * rebuilds every candidate on every iteration, which is
 * O(jobs × horizon) work per handed-out GPU step. Here each job's
 * candidate is computed once and pushed into a lazy max-heap; after a
 * winner is applied, only the candidates its availability change can
 * actually affect are recomputed:
 *
 *  - A best-effort winner consumes slot-0 GPUs only. No other
 *    candidate's *content* depends on slot-0 headroom — only the
 *    "does my delta still fit" gate, which is revalidated lazily on
 *    pop (slot-0 headroom shrinks monotonically, so a failed gate is
 *    permanent).
 *  - An SLO winner additionally changes tail-slot availability where
 *    its old and new plans differ. Only SLO candidates whose horizon
 *    reaches the first changed tail slot can see that change (their
 *    re-fill reads slots [1, horizon)), so exactly those are
 *    recomputed — including previously invalid ones, which may become
 *    feasible when a winner frees tail capacity.
 *
 * Stale heap entries are detected by a per-job epoch. Invariant: the
 * set of fresh heap entries always equals the set of valid candidates
 * the reference would compute at the same point, so popping the heap
 * (with reference tie-breaking baked into the comparator) selects the
 * identical winner and the two implementations produce byte-identical
 * outcomes. tests/test_allocator_equivalence.cc fuzzes this claim.
 *
 * Two skip certificates (DESIGN.md §10) make the same computation
 * cheap on underloaded clusters, both exact:
 *
 *  - Tail re-fills take the unclipped_refill fast path whenever the
 *    job's window provably cannot clip (min tail availability >=
 *    max_useful).
 *  - The per-winner affected scan is skipped outright when every
 *    changed slot kept >= the *global* max max_useful GPUs free
 *    (changed_min >= slo_max_all): each per-job certificate
 *    pref_min[d] >= slo_max_useful[k] is then implied, and a skipped
 *    scan iteration has no side effects, so eliding the whole O(n)
 *    loop is exact.
 *
 * @p plan, @p available and @p be_gpus hold the state after the start
 * scan and receive the final one. Best-effort rows the scan did not
 * start can never start (their start no longer fits, or they have no
 * work), so only the started rows get candidates.
 */
void
grow_allocation(const PlannerConfig &config,
                const std::vector<PlanningJob> &slo_jobs,
                const std::vector<PlanHorizon> &slo_horizon,
                const std::vector<PlanningJob> &best_effort_jobs,
                std::vector<SlotPlan> &plan,
                std::vector<GpuCount> &available,
                std::vector<GpuCount> &be_gpus)
{
    const Time dt = config.slot_seconds;
    const std::size_t n = slo_jobs.size();
    const std::size_t m = best_effort_jobs.size();
    const int horizon = static_cast<int>(available.size());
    std::vector<GpuCount> slo_max_useful(n);
    GpuCount slo_max_all = 0;
    for (std::size_t i = 0; i < n; ++i) {
        slo_max_useful[i] = slo_jobs[i].curve.max_useful();
        slo_max_all = std::max(slo_max_all, slo_max_useful[i]);
    }

    PlannerConfig refill_config = config;
    refill_config.direction = FillDirection::kEarliest;

    std::vector<CandidateSlot> slo_state(n);
    std::vector<CandidateSlot> be_state(m);
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, EntryWorse>
        heap;
    // Scratch availability-with-own-reservation buffer, reused across
    // every candidate computation instead of allocated per candidate.
    std::vector<GpuCount> avail_self;
    avail_self.reserve(static_cast<std::size_t>(horizon));
    // Per-winner scratch: changed tail slots and their prefix
    // certificates (reused, never reallocated after warm-up).
    std::vector<SlotChange> changes;
    std::vector<GpuCount> pref_min(static_cast<std::size_t>(horizon) + 1);
    std::vector<bool> pref_inc(static_cast<std::size_t>(horizon) + 1);

    auto compute_slo = [&](std::size_t i) {
        CandidateSlot &st = slo_state[i];
        ++st.epoch;
        st.cand.valid = false;
        st.why = InvalidWhy::kNone;
        if (st.dead)
            return;
        const PlanningJob &job = slo_jobs[i];
        if (job.remaining_iterations <= kIterEpsilon) {
            st.dead = true;
            return;
        }
        GpuCount g0 = plan[i].at(0);
        GpuCount g0n = job.curve.next_step(g0);
        if (g0n == 0) {
            // plan[i].at(0) only changes when i wins, and i cannot win
            // while invalid — permanent until then.
            st.dead = true;
            return;
        }
        GpuCount delta = g0n - g0;
        EF_DCHECK_MSG(delta > 0, "next_step did not grow job "
                                     << job.id << " (" << g0 << " -> "
                                     << g0n << ")");
        if (delta > available[0]) {
            st.dead = true;  // slot-0 headroom never grows back
            return;
        }
        const PlanHorizon &d = slo_horizon[i];
        if (d.slots < 1) {
            st.dead = true;
            return;
        }

        // The current plan's finish time and GPU-seconds change only
        // when this job wins, not when availability does.
        if (st.plan_dirty) {
            st.finish_cur = plan_finish_seconds(
                job.curve, plan[i], job.remaining_iterations, dt);
            st.cur_gpu_seconds = plan[i].gpu_seconds(dt);
            st.plan_dirty = false;
        }

        double slot0_capacity = d.slots == 1 ? dt * d.last_weight : dt;
        double rem_after0 = job.remaining_iterations -
                            job.curve.throughput(g0n) * slot0_capacity;
        SlotPlan candidate_plan;
        bool used_refill = false;
        if (rem_after0 <= kIterEpsilon) {
            candidate_plan.gpus = {g0n};
        } else {
            used_refill = true;
            EF_DCHECK(plan[i].horizon() <= d.slots);
            // Unclipped-refill certificate: if every tail slot of the
            // window keeps >= max_useful GPUs free, the re-fill can
            // never clip — availability (and the job's own returned
            // reservation, which only adds) is invisible to it, so the
            // specialized walk is exact. The scan breaks at the first
            // busy slot, bounding its cost on saturated clusters where
            // the certificate rarely holds.
            bool unclipped = true;
            for (int t = 1; t < d.slots; ++t) {
                if (available[static_cast<std::size_t>(t)] <
                    slo_max_useful[i]) {
                    unclipped = false;
                    break;
                }
            }
            std::optional<SlotPlan> fill;
            if (unclipped) {
                fill = unclipped_refill(job.curve, rem_after0, d, dt);
            } else {
                // Re-fill the tail with the bumped slot-0 allocation,
                // against availability with this job's own reservation
                // returned. The scratch buffer only needs this job's
                // horizon: progressive_fill never reads past d.slots.
                avail_self.assign(available.begin(),
                                  available.begin() + d.slots);
                for (int t = 1; t < plan[i].horizon(); ++t) {
                    avail_self[static_cast<std::size_t>(t)] +=
                        plan[i].at(t);
                }
                // The refilled tail always packs earliest: boosting
                // only makes sense if it pulls the finish time
                // forward, which a latest-packed tail by construction
                // never would.
                fill = progressive_fill(job.curve, rem_after0,
                                        avail_self, d, refill_config, 1);
            }
            if (!fill.has_value()) {
                // Curable only by *more* tail capacity: the fill sum
                // is monotone in availability, so it keeps failing
                // while the job's window only loses GPUs.
                st.why = InvalidWhy::kRefillFail;
                return;
            }
            candidate_plan = std::move(*fill);
            if (candidate_plan.horizon() < 1)
                candidate_plan.gpus.resize(1, 0);
            candidate_plan.gpus[0] = g0n;
        }

        Time finish_new = plan_finish_seconds(
            job.curve, candidate_plan, job.remaining_iterations, dt);
        if (!(finish_new < st.finish_cur - kFinishEpsilon)) {
            // Algorithm 2 line 10: must speed the job up. When the
            // bump finishes inside slot 0 the candidate read no
            // availability at all, so no future change can flip it.
            if (!used_refill)
                st.dead = true;
            else
                st.why = InvalidWhy::kNotFaster;
            return;
        }

        st.cand.valid = true;
        st.cand.delta = delta;
        st.cand.priority = (st.cur_gpu_seconds -
                            candidate_plan.gpu_seconds(dt)) /
                           static_cast<double>(delta);
        st.cand.new_plan = std::move(candidate_plan);
        heap.push(HeapEntry{st.cand.priority, true,
                            static_cast<std::uint32_t>(i), st.epoch});
    };

    auto compute_be = [&](std::size_t j) {
        CandidateSlot &st = be_state[j];
        ++st.epoch;
        st.cand.valid = false;
        if (st.dead)
            return;
        const PlanningJob &job = best_effort_jobs[j];
        // Only started rows get here, with work left: the start scan
        // handed out every start.
        GpuCount g = be_gpus[j];
        EF_DCHECK(g > 0);
        GpuCount gn = job.curve.next_step(g);
        if (gn == 0) {
            st.dead = true;
            return;
        }
        GpuCount delta = gn - g;
        EF_DCHECK_MSG(delta > 0, "next_step did not grow job "
                                     << job.id << " (" << g << " -> "
                                     << gn << ")");
        if (delta > available[0]) {
            st.dead = true;
            return;
        }
        st.cand.valid = true;
        st.cand.delta = delta;
        st.cand.new_gpus = gn;
        st.cand.priority = (best_effort_gpu_seconds(job, g) -
                            best_effort_gpu_seconds(job, gn)) /
                           static_cast<double>(delta);
        heap.push(HeapEntry{st.cand.priority, false,
                            static_cast<std::uint32_t>(j), st.epoch});
    };

    for (std::size_t i = 0; i < n; ++i)
        compute_slo(i);
    for (std::size_t j = 0; j < m; ++j) {
        if (be_gpus[j] > 0)
            compute_be(j);
    }

    // Greedy loop: hand out slot-0 GPUs to the best marginal return.
    while (available[0] > 0 && !heap.empty()) {
        HeapEntry top = heap.top();
        CandidateSlot &st = top.is_slo ? slo_state[top.index]
                                       : be_state[top.index];
        heap.pop();
        if (top.epoch != st.epoch || !st.cand.valid)
            continue;  // stale entry from before a recompute
        if (st.cand.delta > available[0]) {
            // Lazy slot-0 revalidation: the headroom shrank since this
            // candidate was computed and can never grow back.
            st.cand.valid = false;
            st.dead = true;
            ++st.epoch;
            continue;
        }

        if (top.is_slo) {
            const std::size_t i = top.index;
            // Return the old reservation, charge the new plan, and
            // record which tail slots actually moved (ascending t).
            SlotPlan &new_plan = st.cand.new_plan;
            int max_h = std::max(plan[i].horizon(), new_plan.horizon());
            changes.clear();
            GpuCount changed_min = std::numeric_limits<GpuCount>::max();
            for (int t = 0; t < max_h; ++t) {
                GpuCount diff = plan[i].at(t) - new_plan.at(t);
                if (diff == 0)
                    continue;
                GpuCount &a = available[static_cast<std::size_t>(t)];
                GpuCount before = a;
                a += diff;
                // Per-winner per-slot: debug-only (the reference
                // allocator keeps the always-on EF_CHECK and the
                // equivalence fuzz pins both to the same outcome).
                EF_DCHECK(a >= 0);
                if (t >= 1) {
                    const GpuCount low = std::min(before, a);
                    changes.push_back(SlotChange{t, low, diff > 0});
                    changed_min = std::min(changed_min, low);
                }
            }
            plan[i] = std::move(new_plan);
            st.plan_dirty = true;
            compute_slo(i);
            if (!changes.empty() && changed_min >= slo_max_all) {
                // Whole-scan skip certificate: every changed slot kept
                // >= the global max max_useful GPUs free on both
                // sides of the edit, so for every job k the per-job
                // certificate pref_min[d] >= slo_max_useful[k] below
                // would hold and its scan iteration would be a no-op.
                // Skipping the O(n) loop outright is therefore exact.
            } else if (!changes.empty()) {
                // Prefix certificates over the changed slots: a job
                // with horizon d sees changes [1, d) only, so
                // pref_min[d] / pref_inc[d] summarize them.
                std::size_t c = 0;
                GpuCount run_min =
                    std::numeric_limits<GpuCount>::max();
                bool run_inc = false;
                int last_t = changes.back().t;
                for (int d = 1; d <= last_t + 1; ++d) {
                    while (c < changes.size() && changes[c].t < d) {
                        run_min = std::min(run_min, changes[c].min_avail);
                        run_inc = run_inc || changes[c].increased;
                        ++c;
                    }
                    pref_min[static_cast<std::size_t>(d)] = run_min;
                    pref_inc[static_cast<std::size_t>(d)] = run_inc;
                }
                const int first_changed = changes.front().t;
                for (std::size_t k = 0; k < n; ++k) {
                    if (k == i || slo_state[k].dead)
                        continue;
                    int d = std::min(slo_horizon[k].slots, last_t + 1);
                    if (d <= first_changed)
                        continue;  // no change inside the window
                    // Every changed slot in the window kept at least
                    // max_useful GPUs free both before and after, so
                    // the re-fill (which reads usable(min(level,
                    // avail)) with level <= max_useful) is provably
                    // unchanged.
                    if (pref_min[static_cast<std::size_t>(d)] >=
                        slo_max_useful[k])
                        continue;
                    // A failed re-fill stays failed while the window
                    // only loses GPUs; only an increase can cure it.
                    if (slo_state[k].why == InvalidWhy::kRefillFail &&
                        !pref_inc[static_cast<std::size_t>(d)])
                        continue;
                    compute_slo(k);
                }
            }
        } else {
            const std::size_t j = top.index;
            available[0] -= st.cand.delta;
            be_gpus[j] = st.cand.new_gpus;
            compute_be(j);
        }
    }
}

}  // namespace

/*
 * Algorithm 2 in two phases, with the same winners in the same order
 * as run_allocation_reference (DESIGN.md §10, "Best-effort start
 * phase"). A start's priority is kStartPriority = +inf and every
 * other candidate's is finite, with ties broken by index, so the
 * greedy first hands next_step(0) GPUs to the best-effort rows in
 * index order while they fit in slot 0. That phase is one scan here;
 * grow_allocation runs the rest, and only if slot 0 has GPUs left.
 */
AllocationOutcome
run_allocation(const PlannerConfig &config, Time now,
               const ShareLedger &ledger,
               const std::vector<PlanningJob> &best_effort_jobs)
{
    const std::size_t n = ledger.jobs.size();
    const std::size_t m = best_effort_jobs.size();
    int horizon = 0;
    const std::vector<PlanHorizon> slo_horizon =
        row_horizons(config, now, ledger, best_effort_jobs, &horizon);

    // Start from the minimum satisfactory shares and what they left
    // free, as the ledger holds them (slots it never grew to are
    // free).
    std::vector<SlotPlan> plan(ledger.plans);
    std::vector<GpuCount> available = ledger.available;
    available.resize(static_cast<std::size_t>(horizon), config.total_gpus);
    std::vector<GpuCount> be_gpus(m, 0);

    // Best-effort starts. A row with no work left, or whose start does
    // not fit what is left of slot 0, is skipped: slot-0 headroom only
    // shrinks, so it could never start later either.
    for (std::size_t j = 0; j < m && available[0] > 0; ++j) {
        const PlanningJob &job = best_effort_jobs[j];
        if (job.remaining_iterations <= kIterEpsilon)
            continue;
        const GpuCount start = job.curve.next_step(0);
        if (start == 0 || start > available[0])
            continue;
        be_gpus[j] = start;
        available[0] -= start;
    }
    if (available[0] > 0) {
        grow_allocation(config, ledger.jobs, slo_horizon, best_effort_jobs,
                        plan, available, be_gpus);
    }

    AllocationOutcome outcome =
        outcome_of(std::move(plan), std::move(be_gpus));
    outcome.unallocated = available[0];
    obs::count("core.allocation.runs");
    if (obs::tracing()) {
        obs::TraceEvent round{now, obs::EventKind::kAllocationRound,
                              kInvalidJob,
                              static_cast<std::int64_t>(n),
                              static_cast<std::int64_t>(m)};
        round.x = static_cast<double>(outcome.unallocated);
        obs::emit(round);
    }
    return outcome;
}

}  // namespace ef
