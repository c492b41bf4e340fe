#include "common/rng.h"

#include <algorithm>

namespace ef {

Rng
Rng::fork()
{
    // Mix the parent seed with a per-fork counter through splitmix64 so
    // children are decorrelated from both the parent and each other.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (++fork_count_);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    return Rng(z);
}

std::int64_t
Rng::uniform_int(std::int64_t lo, std::int64_t hi)
{
    ++draws_;
    EF_CHECK_MSG(lo <= hi, "uniform_int(" << lo << ", " << hi << ")");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::uniform_real(double lo, double hi)
{
    ++draws_;
    EF_CHECK_MSG(lo <= hi, "uniform_real(" << lo << ", " << hi << ")");
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

double
Rng::exponential(double rate)
{
    ++draws_;
    EF_CHECK_MSG(rate > 0, "exponential rate must be positive: " << rate);
    std::exponential_distribution<double> dist(rate);
    return dist(engine_);
}

double
Rng::log_normal(double mu, double sigma)
{
    ++draws_;
    std::lognormal_distribution<double> dist(mu, sigma);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    ++draws_;
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
}

bool
Rng::flip(double probability)
{
    ++draws_;
    EF_CHECK(probability >= 0.0 && probability <= 1.0);
    std::bernoulli_distribution dist(probability);
    return dist(engine_);
}

std::size_t
Rng::weighted_index(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights) {
        EF_CHECK_MSG(w >= 0.0, "negative weight " << w);
        total += w;
    }
    EF_CHECK_MSG(total > 0.0, "weighted_index needs a positive weight");
    double r = uniform_real(0.0, total);
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += weights[i];
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
}

}  // namespace ef
