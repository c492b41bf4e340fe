#include "core/scaling_curve.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/math_util.h"

namespace ef {
namespace {

/** Relative gain below which an extra doubling is "not useful". */
constexpr double kUsefulGainEpsilon = 1e-6;

}  // namespace

ScalingCurve
ScalingCurve::from_pow2_table(std::vector<double> table,
                              bool enforce_concave)
{
    auto rep = std::make_shared<Rep>();
    rep->table = std::move(table);
    const char *problem = rep->adopt_table();
    EF_CHECK_MSG(problem == nullptr, "scaling curve " << problem);
    std::vector<double> &valid = rep->table;
    // The valid region is [first positive, end].
    const std::size_t first = static_cast<std::size_t>(
        std::countr_zero(static_cast<std::uint32_t>(rep->min_workers)));

    if (enforce_concave && valid.size() - first >= 2) {
        // Monotone non-decreasing clamp: a concave curve in the
        // algorithms' sense never loses throughput when GPUs are added
        // (the scheduler would simply not use the extra GPUs; profiling
        // stops there, §6.6).
        for (std::size_t k = first + 1; k < valid.size(); ++k)
            valid[k] = std::max(valid[k], valid[k - 1]);
        // Concave envelope in GPU-count space over the valid region.
        std::vector<double> xs, ys;
        for (std::size_t k = first; k < valid.size(); ++k) {
            xs.push_back(static_cast<double>(GpuCount(1) << k));
            ys.push_back(valid[k]);
        }
        std::vector<double> env = concave_envelope(xs, ys);
        for (std::size_t k = first; k < valid.size(); ++k)
            valid[k] = env[k - first];
        rep->derive(first);
    }
    return ScalingCurve(std::move(rep));
}

const std::vector<double> &
ScalingCurve::table() const
{
    static const std::vector<double> kEmpty;
    return rep_ != nullptr ? rep_->table : kEmpty;
}

bool
ScalingCurve::adopt_wire(Wire &&table)
{
    auto rep = std::make_shared<Rep>();
    rep->table = std::move(table);
    if (rep->adopt_table() != nullptr)
        return false;
    rep_ = std::move(rep);
    return true;
}

const char *
ScalingCurve::Rep::adopt_table()
{
    if (table.empty())
        return "needs at least one entry";
    if (table.size() > 31)
        return "has more entries than a GpuCount power of two";
    std::size_t first = table.size();
    for (std::size_t k = 0; k < table.size(); ++k) {
        const double v = table[k];
        if (std::isnan(v) || v < 0.0)
            return "has a negative or NaN throughput";
        if (first < table.size() && v <= 0.0)
            return "has a zero inside its valid region";
        if (v > 0.0 && first == table.size())
            first = k;
    }
    if (first == table.size())
        return "has no feasible GPU count";
    derive(first);
    return nullptr;
}

void
ScalingCurve::Rep::derive(std::size_t first)
{
    min_workers = GpuCount(1) << first;
    // max_useful: the last doubling that still improves throughput.
    std::size_t best = first;
    for (std::size_t k = first + 1; k < table.size(); ++k) {
        if (table[k] > table[best] * (1.0 + kUsefulGainEpsilon))
            best = k;
    }
    max_useful = GpuCount(1) << best;
    // Entry w answers "throughput with any count of bit width w":
    // counts round down to 2^(w-1), clamped to the tabulated maximum.
    // Width 0 is unreachable (non-positive counts short-circuit).
    const std::size_t last = table.size() - 1;
    by_width[0] = 0.0;
    for (std::size_t w = 1; w < kIndexEntries; ++w)
        by_width[w] = table[std::min(w - 1, last)];
}

GpuCount
ScalingCurve::next_step(GpuCount gpus) const
{
    EF_CHECK(rep_ != nullptr);
    const GpuCount min_workers = rep_->min_workers;
    const GpuCount max_useful = rep_->max_useful;
    if (gpus <= 0)
        return min_workers <= max_useful ? min_workers : 0;
    EF_CHECK_MSG(is_power_of_two(gpus), "allocation " << gpus
                                        << " is not a power of two");
    // A running allocation beyond max_useful() means a plan escaped
    // the usable() clamp (seen with restrict_to_fixed_size() curves
    // whose fixed size is below the job's current count): returning 0
    // here would silently freeze the job at an allocation the curve
    // cannot price, so fail loudly instead.
    EF_CHECK_MSG(gpus <= max_useful,
                 "allocation " << gpus << " exceeds max_useful "
                               << max_useful);
    GpuCount next = gpus * 2;
    if (next > max_useful)
        return 0;
    return next;
}

ScalingCurve
restrict_to_fixed_size(const ScalingCurve &curve, GpuCount size)
{
    EF_CHECK(is_power_of_two(size));
    double tpt = curve.throughput(size);
    EF_CHECK_MSG(tpt > 0.0,
                 "cannot fix a curve at infeasible size " << size);
    std::vector<double> table(static_cast<std::size_t>(
                                  log2_exact(size)) + 1, 0.0);
    table.back() = tpt;
    return ScalingCurve::from_pow2_table(std::move(table),
                                         /*enforce_concave=*/false);
}

bool
ScalingCurve::concave() const
{
    const std::vector<double> &values = table();
    std::vector<double> xs, ys;
    for (std::size_t k = 0; k < values.size(); ++k) {
        if (values[k] <= 0.0)
            continue;
        xs.push_back(static_cast<double>(GpuCount(1) << k));
        ys.push_back(values[k]);
    }
    return is_concave(xs, ys, 1e-9 * (ys.empty() ? 1.0 : ys.back()));
}

}  // namespace ef
