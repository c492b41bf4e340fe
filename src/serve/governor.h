/**
 * @file
 * Replan-cadence governor: a token bucket over *simulated* time.
 *
 * Every submission could trigger a full Algorithm 1 + 2 replan; under
 * an arrival storm that turns the scheduler itself into the
 * bottleneck. The governor bounds scheduler invocations per simulated
 * second and lets the service batch everything that queued up in
 * between into one planning round. Two properties hold by
 * construction:
 *
 *  - Rate bound: at most `burst` rounds back to back, and a long-run
 *    average of `rounds_per_second` token-funded rounds.
 *  - Starvation bound: a round is *forced* (without a token) once the
 *    oldest queued submission has waited `starvation_horizon_s`, so no
 *    submission waits past the horizon for its verdict. Forced rounds
 *    do not consume tokens, so the effective worst-case round rate is
 *    rounds_per_second + 1/starvation_horizon_s.
 *
 * Purely arithmetic on sim timestamps — no wall clock, no RNG — so a
 * governed run replays byte-identically.
 */
#ifndef EF_SERVE_GOVERNOR_H_
#define EF_SERVE_GOVERNOR_H_

#include <cstdint>

#include "common/types.h"

namespace ef {
namespace serve {

/** Token-bucket parameters. */
struct GovernorConfig
{
    /** Sustained replan rate (tokens per simulated second). */
    double rounds_per_second = 0.2;
    /** Bucket capacity: rounds that may fire back to back. */
    double burst = 2.0;
    /** Longest a queued submission may wait for its verdict before a
     *  round is forced without a token. */
    Time starvation_horizon_s = 60.0;
};

/** The token bucket. Refills lazily on each query. */
class ReplanGovernor
{
  public:
    explicit ReplanGovernor(GovernorConfig config);

    const GovernorConfig &config() const { return config_; }

    /**
     * Take a token for a round at @p now. Returns false (and leaves
     * the bucket untouched) when the bucket is empty — the caller may
     * still run a forced round for the starvation bound.
     */
    bool try_acquire(Time now);

    /** Earliest time >= @p now at which a token will be available. */
    Time next_eligible(Time now) const;

    /** Current token balance at @p now (refill applied, not stored). */
    double tokens_at(Time now) const;

    /** Persistent state (recover/fields.h): the bucket. */
    template <class V>
    void
    fields(V &v)
    {
        v(tokens_, last_refill_);
    }

  private:
    /** Refill up to @p now (monotonic; past times are ignored). */
    void refill(Time now);

    GovernorConfig config_;
    double tokens_ = 0.0;
    Time last_refill_ = 0.0;
};

}  // namespace serve
}  // namespace ef

#endif  // EF_SERVE_GOVERNOR_H_
