#include "serve/governor.h"

#include <algorithm>

#include "common/check.h"

namespace ef {
namespace serve {

ReplanGovernor::ReplanGovernor(GovernorConfig config)
    : config_(config),
      // Start full: the first submissions of a run should not wait for
      // the bucket to fill from zero.
      tokens_(config.burst)
{
    EF_FATAL_IF(config_.rounds_per_second <= 0.0,
                "governor needs rounds_per_second > 0");
    EF_FATAL_IF(config_.burst < 1.0, "governor needs burst >= 1");
    EF_FATAL_IF(config_.starvation_horizon_s <= 0.0,
                "governor needs starvation_horizon_s > 0");
}

void
ReplanGovernor::refill(Time now)
{
    if (now <= last_refill_)
        return;
    tokens_ = std::min(config_.burst,
                       tokens_ + (now - last_refill_) *
                                     config_.rounds_per_second);
    last_refill_ = now;
}

bool
ReplanGovernor::try_acquire(Time now)
{
    refill(now);
    if (tokens_ < 1.0)
        return false;
    tokens_ -= 1.0;
    return true;
}

Time
ReplanGovernor::next_eligible(Time now) const
{
    const double balance = tokens_at(now);
    if (balance >= 1.0)
        return now;
    return now + (1.0 - balance) / config_.rounds_per_second;
}

double
ReplanGovernor::tokens_at(Time now) const
{
    if (now <= last_refill_)
        return tokens_;
    return std::min(config_.burst,
                    tokens_ + (now - last_refill_) *
                                  config_.rounds_per_second);
}

}  // namespace serve
}  // namespace ef
