#include "core/allocation_plan.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ef {

double
SlotPlan::gpu_seconds(Time slot_seconds) const
{
    double total = 0.0;
    for (GpuCount g : gpus)
        total += static_cast<double>(g);
    return total * slot_seconds;
}

void
SlotPlan::trim()
{
    while (!gpus.empty() && gpus.back() == 0)
        gpus.pop_back();
}

double
plan_iterations(const ScalingCurve &curve, const SlotPlan &plan,
                Time slot_seconds)
{
    double iterations = 0.0;
    for (GpuCount g : plan.gpus)
        iterations += curve.throughput(g) * slot_seconds;
    return iterations;
}

Time
plan_finish_seconds(const ScalingCurve &curve, const SlotPlan &plan,
                    double remaining_iterations, Time slot_seconds)
{
    if (remaining_iterations <= 0.0)
        return 0.0;
    double left = remaining_iterations;
    for (std::size_t t = 0; t < plan.gpus.size(); ++t) {
        double tpt = curve.throughput(plan.gpus[t]);
        double done = tpt * slot_seconds;
        if (done >= left && tpt > 0.0) {
            return static_cast<Time>(t) * slot_seconds + left / tpt;
        }
        left -= done;
    }
    return kTimeInfinity;
}

int
deadline_slots(Time now, Time deadline, Time slot_seconds, int max_slots)
{
    EF_CHECK(slot_seconds > 0.0 && max_slots >= 0);
    if (is_unbounded(deadline))
        return max_slots;
    if (deadline <= now)
        return 0;
    double slots = std::floor((deadline - now) / slot_seconds);
    slots = std::min(slots, static_cast<double>(max_slots));
    return static_cast<int>(slots);
}

PlanHorizon
plan_horizon(Time now, Time deadline, Time slot_seconds, int max_slots)
{
    EF_CHECK(slot_seconds > 0.0 && max_slots >= 0);
    PlanHorizon horizon;
    if (is_unbounded(deadline)) {
        horizon.slots = max_slots;
        horizon.last_weight = 1.0;
        return horizon;
    }
    if (deadline <= now)
        return horizon;
    double span = (deadline - now) / slot_seconds;
    double whole = std::floor(span);
    if (whole >= static_cast<double>(max_slots)) {
        horizon.slots = max_slots;
        horizon.last_weight = 1.0;
        return horizon;
    }
    horizon.slots = static_cast<int>(whole);
    double frac = span - whole;
    if (frac > 1e-12) {
        horizon.slots += 1;
        horizon.last_weight = frac;
    } else {
        horizon.last_weight = 1.0;
    }
    return horizon;
}

}  // namespace ef
