/**
 * @file
 * Summary statistics used by the metrics module and the benches:
 * online accumulation plus percentile queries over retained samples.
 */
#ifndef EF_COMMON_STATS_H_
#define EF_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace ef {

/** Collects scalar samples and answers summary queries. */
class SampleStats
{
  public:
    void add(double value);

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;

    /** Percentile in [0, 100] via linear interpolation between ranks. */
    double percentile(double pct) const;
    double median() const { return percentile(50.0); }

    const std::vector<double> &samples() const { return samples_; }

  private:
    std::vector<double> samples_;
    double sum_ = 0.0;
};

/**
 * Piecewise-constant time series (value holds from one sample time to
 * the next). Used for GPU-allocation and cluster-efficiency timelines
 * (Figs. 7 and 10), supporting time-weighted averages over a window.
 */
class StepSeries
{
  public:
    /** Record that the series takes @p value from @p time onward. */
    void record(double time, double value);

    bool empty() const { return times_.empty(); }
    std::size_t size() const { return times_.size(); }

    const std::vector<double> &times() const { return times_; }
    const std::vector<double> &values() const { return values_; }

    /** Value in effect at @p time (0 before the first sample). */
    double value_at(double time) const;

    /** Time-weighted mean over [t0, t1]. */
    double time_average(double t0, double t1) const;

    /**
     * Resample onto a uniform grid of @p buckets points across
     * [t0, t1] (bucket value = time-weighted mean), for compact
     * console plots in the benches.
     */
    std::vector<double> resample(double t0, double t1,
                                 std::size_t buckets) const;

    /** Persistent state (recover/fields.h); journal only. Storage is
     *  canonical, so decode takes the vectors as they are. Both only
     *  grow, except that record() may overwrite the last sample, which
     *  the append() tag allows for. */
    template <class V>
    void
    fields(V &v)
    {
        v.append(times_, values_);
        v.after_decode([this] { return canonical(); });
    }

  private:
    /** Equal lengths and strictly increasing times. */
    bool canonical() const;

    std::vector<double> times_;   // strictly increasing
    std::vector<double> values_;  // value from times_[i] to times_[i+1]
};

}  // namespace ef

#endif  // EF_COMMON_STATS_H_
