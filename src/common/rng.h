/**
 * @file
 * Deterministic random number generation for reproducible experiments.
 *
 * Every stochastic component (trace generation, deadline tightness,
 * model choice, test-case generation) draws through an Rng instance that
 * is explicitly seeded, so a whole experiment is a pure function of its
 * seed. Rng also offers fork(), which derives an independent child
 * stream, letting subsystems evolve without perturbing each other's
 * sequences.
 */
#ifndef EF_COMMON_RNG_H_
#define EF_COMMON_RNG_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"

namespace ef {

/** Seeded pseudo-random stream with the distributions ElasticFlow needs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

    /** Seed this stream was created with. */
    std::uint64_t seed() const { return seed_; }

    /** Derive an independent child stream (stable across calls). */
    Rng fork();

    /** Uniform integer in [lo, hi], inclusive. */
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /** Uniform real in [lo, hi). */
    double uniform_real(double lo, double hi);

    /** Standard exponential with the given rate (events per unit time). */
    double exponential(double rate);

    /** Log-normal with the given mu/sigma of the underlying normal. */
    double log_normal(double mu, double sigma);

    /** Normal distribution. */
    double normal(double mean, double stddev);

    /** Bernoulli trial. */
    bool flip(double probability);

    /**
     * Sample an index from unnormalized non-negative weights.
     * @pre at least one weight is positive.
     */
    std::size_t weighted_index(const std::vector<double> &weights);

    /** Shuffle a vector in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &values)
    {
        ++draws_;
        std::shuffle(values.begin(), values.end(), engine_);
    }

    /**
     * Persistent state (recover/fields.h). The (seed, draws, forks)
     * cursor — draws taken and child streams forked so far — pins the
     * stream's position: two runs are in sync iff every stream has the
     * same cursor, so it is hashed. The engine is journaled verbatim so
     * a restored stream continues bit-identically without replaying
     * its draws.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(seed_, draws_, fork_count_);
        v.journal(engine_);
    }

  private:
    std::mt19937_64 engine_;
    std::uint64_t seed_;
    std::uint64_t fork_count_ = 0;
    std::uint64_t draws_ = 0;
};

}  // namespace ef

#endif  // EF_COMMON_RNG_H_
