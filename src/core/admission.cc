#include "core/admission.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ef {
namespace {

/**
 * ProgressiveFilling's level walk. With @p kBounded, a level the
 * level-skip bound rules out is charged its scan's cost and not
 * scanned, and usable(level) is looked up once per scanned level
 * rather than in every slot with that many GPUs free. The levels that
 * are scanned get exactly the unbounded walk's values; that walk keeps
 * the literal per-slot usable(min(level, available)) as the oracle.
 */
template <bool kBounded>
std::optional<SlotPlan>
fill_levels(const ScalingCurve &curve, double remaining_iterations,
            const std::vector<GpuCount> &available,
            const PlanHorizon &horizon, const PlannerConfig &config,
            int start_slot, std::uint64_t *cost)
{
    const int slots = horizon.slots;
    EF_CHECK(slots >= 0 && start_slot >= 0);
    EF_CHECK(static_cast<int>(available.size()) >= slots);
    EF_CHECK(!curve.empty());

    SlotPlan plan;
    if (remaining_iterations <= kFillEpsilon)
        return plan;  // nothing left to do
    if (start_slot >= slots)
        return std::nullopt;

    const Time dt = config.slot_seconds;
    const GpuCount max_useful = curve.max_useful();
    auto slot_capacity = [&](int t) {
        return t == slots - 1 ? dt * horizon.last_weight : dt;
    };
    const double window = fill_window_seconds(horizon, dt, start_slot);
    // Running max of throughput over the levels tried: each slot of
    // level L runs usable(min(L, available)), which is 0 or a level
    // already tried, so this bounds every slot even on non-monotone
    // curves.
    double peak = 0.0;
    for (GpuCount level = curve.min_workers();
         level != 0 && level <= max_useful;
         level = (level < max_useful ? level * 2 : 0)) {
        if constexpr (kBounded) {
            peak = std::max(peak, curve.throughput(level));
            if (level_cannot_finish(peak, window, remaining_iterations)) {
                if (cost != nullptr)
                    *cost += static_cast<std::uint64_t>(slots - start_slot);
                continue;
            }
        }
        plan.gpus.assign(static_cast<std::size_t>(slots), 0);
        double remaining = remaining_iterations;
        bool satisfied = false;
        // Every slot with at least `level` GPUs free runs
        // usable(level).
        const GpuCount level_x = kBounded ? curve.usable(level) : 0;
        const double level_tpt = kBounded ? curve.throughput(level_x) : 0.0;

        auto fill_slot = [&](int t) {
            if (cost != nullptr)
                ++*cost;
            const GpuCount a = available[static_cast<std::size_t>(t)];
            GpuCount x = 0;
            double tpt = 0.0;
            if (kBounded && a >= level) {
                x = level_x;
                tpt = level_tpt;
            } else {
                x = curve.usable(std::min(level, a));
                tpt = curve.throughput(x);
            }
            plan.gpus[static_cast<std::size_t>(t)] = x;
            remaining -= tpt * slot_capacity(t);
            return remaining <= kFillEpsilon;
        };

        if (config.direction == FillDirection::kEarliest) {
            for (int t = start_slot; t < slots && !satisfied; ++t)
                satisfied = fill_slot(t);
        } else {
            for (int t = slots - 1; t >= start_slot && !satisfied; --t)
                satisfied = fill_slot(t);
        }
        if (satisfied) {
            plan.trim();
            return plan;
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<SlotPlan>
progressive_fill(const ScalingCurve &curve, double remaining_iterations,
                 const std::vector<GpuCount> &available,
                 const PlanHorizon &horizon, const PlannerConfig &config,
                 int start_slot, std::uint64_t *cost)
{
    return fill_levels<true>(curve, remaining_iterations, available,
                             horizon, config, start_slot, cost);
}

std::optional<SlotPlan>
progressive_fill_reference(const ScalingCurve &curve,
                           double remaining_iterations,
                           const std::vector<GpuCount> &available,
                           const PlanHorizon &horizon,
                           const PlannerConfig &config, int start_slot,
                           std::uint64_t *cost)
{
    return fill_levels<false>(curve, remaining_iterations, available,
                              horizon, config, start_slot, cost);
}

bool
ShareLedger::reserve(PlanningJob &&job, const PlanHorizon &horizon,
                     const PlannerConfig &config, std::uint64_t *cost)
{
    const std::size_t had = available.size();
    if (horizon.slots > static_cast<int>(had)) {
        available.resize(static_cast<std::size_t>(horizon.slots),
                         config.total_gpus);
    }
    std::optional<SlotPlan> plan =
        progressive_fill(job.curve, job.remaining_iterations, available,
                         horizon, config, /*start_slot=*/0, cost);
    if (!plan.has_value()) {
        available.resize(had);
        return false;
    }
    // A fill never reserves past the horizon it was computed for; the
    // allocator's scratch buffers rely on it.
    EF_CHECK(plan->horizon() <= horizon.slots);
    for (int t = 0; t < plan->horizon(); ++t) {
        GpuCount &a = available[static_cast<std::size_t>(t)];
        a -= plan->at(t);
        EF_CHECK_MSG(a >= 0, "minimum shares over-allocated slot " << t);
    }
    jobs.push_back(std::move(job));
    plans.push_back(std::move(*plan));
    return true;
}

AdmissionOutcome
run_admission(const PlannerConfig &config, Time now,
              std::vector<PlanningJob> jobs)
{
    EF_CHECK(config.total_gpus > 0 && config.slot_seconds > 0.0);
    AdmissionOutcome outcome;

    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         if (a.deadline != b.deadline)
                             return a.deadline < b.deadline;
                         return a.id < b.id;
                     });
    for (const PlanningJob &job : jobs) {
        EF_CHECK_MSG(!job.best_effort(),
                     "best-effort job " << job.id
                                        << " passed to admission control");
    }

    obs::count("core.admission.runs");
    ShareLedger &ledger = outcome.ledger;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobId id = jobs[i].id;
        const Time deadline = jobs[i].deadline;
        const PlanHorizon horizon = plan_horizon(
            now, deadline, config.slot_seconds, config.max_slots);
        if (!ledger.reserve(std::move(jobs[i]), horizon, config,
                            &outcome.cost)) {
            obs::count("core.admission.infeasible");
            if (obs::tracing()) {
                obs::emit({now, obs::EventKind::kAdmissionOutcome, id,
                           /*feasible=*/0, static_cast<std::int64_t>(i)});
            }
            return outcome;  // infeasible; the ledger stops here
        }
        if (obs::tracing()) {
            // The job's minimum satisfactory share, reported as the
            // peak GPU level of the filled plan.
            const std::vector<GpuCount> &plan = ledger.plans.back().gpus;
            const GpuCount peak =
                plan.empty() ? 0
                             : *std::max_element(plan.begin(), plan.end());
            obs::TraceEvent share{now, obs::EventKind::kAdmissionShare, id,
                                  peak,
                                  static_cast<std::int64_t>(plan.size())};
            share.x = deadline;
            obs::emit(share);
        }
    }
    outcome.feasible = true;
    if (obs::tracing()) {
        obs::emit({now, obs::EventKind::kAdmissionOutcome, kInvalidJob,
                   /*feasible=*/1,
                   static_cast<std::int64_t>(jobs.size())});
    }
    return outcome;
}

bool
linear_feasibility(GpuCount total_gpus, Time now,
                   const std::vector<PlanningJob> &jobs)
{
    std::vector<PlanningJob> sorted = jobs;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         return a.deadline < b.deadline;
                     });
    double cumulative_gpu_time = 0.0;
    for (const PlanningJob &job : sorted) {
        double per_gpu = job.curve.throughput(1);
        EF_CHECK_MSG(per_gpu > 0.0,
                     "linear_feasibility needs 1-GPU-feasible jobs");
        cumulative_gpu_time += job.remaining_iterations / per_gpu;
        double budget =
            static_cast<double>(total_gpus) * (job.deadline - now);
        if (cumulative_gpu_time > budget)
            return false;
    }
    return true;
}

}  // namespace ef
