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
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ef {

/**
 * Throughput (iterations/sec) at power-of-two GPU counts.
 *
 * A curve is an immutable shared handle: the table and everything
 * derived from it live in one heap representation, built once and
 * never changed, so copying a curve bumps a reference count and copies
 * share one table (DESIGN.md §5). A default-constructed curve is empty.
 */
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

    bool empty() const { return rep_ == nullptr; }

    /**
     * Throughput with @p gpus GPUs: counts round down to the nearest
     * power of two and clamp to the tabulated maximum; returns 0 for
     * counts below min_workers() or non-positive.
     *
     * Hot path of Algorithms 1–2: the throughput of every bit width is
     * precomputed at construction, so a lookup is one bit_width plus
     * one array read — no loops or divisions.
     */
    double throughput(GpuCount gpus) const
    {
        EF_CHECK(rep_ != nullptr);
        if (gpus <= 0)
            return 0.0;
        return rep_->by_width[bit_width_of(gpus)];
    }

    /** Largest tabulated GPU count (a power of two). */
    GpuCount max_tabulated() const
    {
        EF_CHECK(rep_ != nullptr);
        return GpuCount(1) << (rep_->table.size() - 1);
    }

    /** Smallest GPU count with positive throughput. */
    GpuCount min_workers() const
    {
        EF_CHECK(rep_ != nullptr);
        return rep_->min_workers;
    }

    /**
     * Largest GPU count worth allocating: beyond it, throughput stops
     * improving (by more than a relative epsilon). 0 when empty.
     */
    GpuCount max_useful() const { return rep_ ? rep_->max_useful : 0; }

    /**
     * Largest usable allocation given @p available GPUs: the largest
     * power of two <= min(available, max_useful()), or 0 when even
     * min_workers() does not fit (always, for an empty curve).
     */
    GpuCount usable(GpuCount available) const
    {
        if (rep_ == nullptr)
            return 0;
        GpuCount cap = std::min(available, rep_->max_useful);
        if (cap < rep_->min_workers)
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

    /** The table (entry k: throughput at 2^k GPUs); empty when the
     *  curve is. Copies of a curve return the same vector. */
    const std::vector<double> &table() const;

    /**
     * Persistent form (recover/fields.h): a curve travels as its table
     * and decodes through adopt_wire(), which validates the table and
     * derives the rest in whatever section it was read.
     */
    using Wire = std::vector<double>;
    const Wire &wire() const { return table(); }
    /** Take a decoded @p table into a representation of its own;
     *  false when it is malformed (the curve is then unchanged). */
    bool adopt_wire(Wire &&table);

  private:
    /** One entry per possible bit width of a GpuCount (plus width 0). */
    static constexpr std::size_t kIndexEntries = 34;

    /** The shared, immutable representation. */
    struct Rep
    {
        std::vector<double> table;  // index k -> throughput at 2^k GPUs
        GpuCount min_workers = 0;
        GpuCount max_useful = 0;
        /** bit_width(gpus) -> throughput at min(2^(w-1), max tabulated). */
        std::array<double, kIndexEntries> by_width{};

        /** Validate table and derive the members above from it; on a
         *  malformed table, what is wrong with it (nothing derived). */
        const char *adopt_table();
        /** Derive the members above from table, whose first positive
         *  entry is at @p first. */
        void derive(std::size_t first);
    };

    explicit ScalingCurve(std::shared_ptr<const Rep> rep)
        : rep_(std::move(rep))
    {}

    /** bit_width(gpus) for positive counts; 1 + floor(log2(gpus)). */
    static int bit_width_of(GpuCount gpus)
    {
        return std::bit_width(static_cast<std::uint32_t>(gpus));
    }

    std::shared_ptr<const Rep> rep_;
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
