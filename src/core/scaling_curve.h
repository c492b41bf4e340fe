/**
 * @file
 * Scaling curves: the throughput of a job as a function of its GPU
 * count (paper §3.2, Fig. 2a).
 *
 * Worker counts are powers of two (§4.3), so a curve is a table indexed
 * by log2(GPUs). Curves are concave — adding GPUs has diminishing
 * returns — which Algorithms 1 and 2 rely on; construction optionally
 * enforces the concave envelope over the valid region so that analytic
 * performance-model output always satisfies the assumption.
 *
 * A curve also captures the feasible range of a job:
 *  - entries below min_workers() are zero (the local batch would
 *    overflow GPU memory);
 *  - max_useful() is where profiling stops because adding GPUs no
 *    longer increases throughput (§6.6).
 */
#ifndef EF_CORE_SCALING_CURVE_H_
#define EF_CORE_SCALING_CURVE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ef {

/** Throughput (iterations/sec) at power-of-two GPU counts. */
class ScalingCurve
{
  public:
    ScalingCurve() = default;

    /**
     * Build from a table where entry k is the throughput with 2^k
     * GPUs. Leading zeros mark memory-infeasible counts. When
     * @p enforce_concave is set, the valid region is made monotone
     * non-decreasing up to its peak and replaced by its concave
     * envelope (in GPU-count space).
     */
    static ScalingCurve from_pow2_table(std::vector<double> table,
                                        bool enforce_concave = true);

    bool empty() const { return table_.empty(); }

    /**
     * Throughput with @p gpus GPUs: counts round down to the nearest
     * power of two and clamp to the tabulated maximum; returns 0 for
     * counts below min_workers() or non-positive.
     *
     * Hot path of Algorithms 1–2: the clamped log2 index is
     * precomputed per bit width at construction, so a lookup is one
     * bit_width plus two array reads — no loops or divisions.
     */
    double throughput(GpuCount gpus) const
    {
        EF_CHECK(!table_.empty());
        if (gpus <= 0)
            return 0.0;
        return table_[index_[bit_width_of(gpus)]];
    }

    /** Largest tabulated GPU count (a power of two). */
    GpuCount max_tabulated() const
    {
        EF_CHECK(!table_.empty());
        return GpuCount(1) << (table_.size() - 1);
    }

    /** Smallest GPU count with positive throughput. */
    GpuCount min_workers() const
    {
        EF_CHECK(!table_.empty());
        return min_workers_;
    }

    /**
     * Largest GPU count worth allocating: beyond it, throughput stops
     * improving (by more than a relative epsilon).
     */
    GpuCount max_useful() const { return max_useful_; }

    /**
     * Largest usable allocation given @p available GPUs: the largest
     * power of two <= min(available, max_useful()), or 0 when even
     * min_workers() does not fit.
     */
    GpuCount usable(GpuCount available) const
    {
        GpuCount cap = std::min(available, max_useful_);
        if (cap < min_workers_)
            return 0;  // also covers non-positive availability
        return static_cast<GpuCount>(
            std::bit_floor(static_cast<std::uint32_t>(cap)));
    }

    /**
     * Next larger allocation step after @p gpus: min_workers() when
     * @p gpus is 0, twice @p gpus otherwise; 0 when already at or
     * beyond max_useful().
     */
    GpuCount next_step(GpuCount gpus) const;

    /** True when the valid region has non-increasing marginal gains. */
    bool concave() const;

    const std::vector<double> &table() const { return table_; }

    /** Persistent state (recover/fields.h): the table, journal only;
     *  decode validates it and re-derives the rest. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(table_);
        v.after_decode([this] { return adopt_table() == nullptr; });
    }

  private:
    /** Validate table_ and derive the members below from it; on a
     *  malformed table, what is wrong with it (nothing derived). */
    const char *adopt_table();
    /** Derive min_workers_, max_useful_ and index_ from table_, whose
     *  first positive entry is at @p first. */
    void derive(std::size_t first);

    /** bit_width(gpus) for positive counts; 1 + floor(log2(gpus)). */
    static int bit_width_of(GpuCount gpus)
    {
        return std::bit_width(static_cast<std::uint32_t>(gpus));
    }

    void rebuild_index();

    /** One entry per possible bit width of a GpuCount (plus width 0). */
    static constexpr std::size_t kIndexEntries = 34;

    std::vector<double> table_;     // index k -> throughput at 2^k GPUs
    GpuCount max_useful_ = 0;
    GpuCount min_workers_ = 0;
    /** bit_width(gpus) -> clamped table index (min(log2, size-1)). */
    std::array<std::uint8_t, kIndexEntries> index_{};
};

/**
 * Restrict a curve to one fixed GPU count (server-centric semantics):
 * the result is zero below @p size and flat at the original
 * throughput(size) from there on, so min_workers() == max_useful() ==
 * size. Used to express non-elastic baselines (e.g. Chronus) in terms
 * of the same planning machinery.
 */
ScalingCurve restrict_to_fixed_size(const ScalingCurve &curve,
                                    GpuCount size);

}  // namespace ef

#endif  // EF_CORE_SCALING_CURVE_H_
