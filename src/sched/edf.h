/**
 * @file
 * Earliest-Deadline-First baseline and its Fig. 9 ablation variants.
 *
 * Plain EDF (paper §6.1): orders jobs by deadline and gives the
 * earliest-deadline job as many GPUs as it can scale out to without
 * losing throughput, then the next job takes the leftovers, and so on.
 * It is neither admission-controlled (no drops) nor deadline-fitted
 * (no minimum-share right-sizing), which is exactly why it wastes GPU
 * time under sub-linear scaling (§3.2, Fig. 3).
 *
 * EDF + Admission Control adds Algorithm 1 as a submission filter.
 * EDF + Elastic Scaling keeps admitting everything but allocates with
 * ElasticFlow's minimum shares + marginal returns (Algorithms 1-2).
 */
#ifndef EF_SCHED_EDF_H_
#define EF_SCHED_EDF_H_

#include <string>

#include "sched/planning_util.h"
#include "sched/scheduler.h"

namespace ef {

/** Which Fig. 9 variant an EdfScheduler instance implements. */
enum class EdfVariant { kPlain, kWithAdmission, kWithElastic };

/** See file comment. */
class EdfScheduler : public Scheduler
{
  public:
    explicit EdfScheduler(EdfVariant variant = EdfVariant::kPlain)
        : variant_(variant)
    {}

    std::string name() const override;

    bool admit(const JobSpec &job) override;
    SchedulerDecision allocate() override;

    Time reschedule_interval() const override { return 300.0; }
    bool allow_migration() const override
    {
        return variant_ == EdfVariant::kWithElastic;
    }

  private:
    EdfVariant variant_;
};

}  // namespace ef

#endif  // EF_SCHED_EDF_H_
