#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ef {

void
SampleStats::add(double value)
{
    samples_.push_back(value);
    sum_ += value;
}

double
SampleStats::mean() const
{
    EF_CHECK(!samples_.empty());
    return sum_ / static_cast<double>(samples_.size());
}

double
SampleStats::min() const
{
    EF_CHECK(!samples_.empty());
    return *std::min_element(samples_.begin(), samples_.end());
}

double
SampleStats::max() const
{
    EF_CHECK(!samples_.empty());
    return *std::max_element(samples_.begin(), samples_.end());
}

double
SampleStats::stddev() const
{
    EF_CHECK(!samples_.empty());
    double m = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - m) * (s - m);
    return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double
SampleStats::percentile(double pct) const
{
    EF_CHECK(!samples_.empty());
    EF_CHECK(pct >= 0.0 && pct <= 100.0);
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted[0];
    double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void
StepSeries::record(double time, double value)
{
    if (!times_.empty()) {
        EF_CHECK_MSG(time >= times_.back(),
                     "StepSeries times must be non-decreasing");
        if (time == times_.back()) {
            values_.back() = value;  // overwrite same-instant sample
            return;
        }
        if (values_.back() == value)
            return;  // run-length compress
    }
    times_.push_back(time);
    values_.push_back(value);
}

bool
StepSeries::canonical() const
{
    if (times_.size() != values_.size())
        return false;
    for (std::size_t i = 0; i < times_.size(); ++i) {
        if (std::isnan(times_[i]) || (i > 0 && !(times_[i] > times_[i - 1])))
            return false;
    }
    return true;
}

double
StepSeries::value_at(double time) const
{
    if (times_.empty() || time < times_.front())
        return 0.0;
    auto it = std::upper_bound(times_.begin(), times_.end(), time);
    std::size_t idx = static_cast<std::size_t>(it - times_.begin()) - 1;
    return values_[idx];
}

double
StepSeries::time_average(double t0, double t1) const
{
    EF_CHECK(t1 > t0);
    if (times_.empty())
        return 0.0;
    double acc = 0.0;
    double cursor = t0;
    while (cursor < t1) {
        double v = value_at(cursor);
        // Next change point after cursor.
        auto it = std::upper_bound(times_.begin(), times_.end(), cursor);
        double next = (it == times_.end()) ? t1 : std::min(*it, t1);
        if (next <= cursor)
            break;
        acc += v * (next - cursor);
        cursor = next;
    }
    return acc / (t1 - t0);
}

std::vector<double>
StepSeries::resample(double t0, double t1, std::size_t buckets) const
{
    EF_CHECK(buckets > 0 && t1 > t0);
    std::vector<double> out(buckets, 0.0);
    double width = (t1 - t0) / static_cast<double>(buckets);
    for (std::size_t b = 0; b < buckets; ++b) {
        double lo = t0 + width * static_cast<double>(b);
        out[b] = time_average(lo, lo + width);
    }
    return out;
}

}  // namespace ef
