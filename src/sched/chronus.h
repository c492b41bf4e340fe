/**
 * @file
 * Chronus baseline (Gao et al., SoCC'21): deadline-aware but
 * server-centric. SLO jobs are admitted only if a lease schedule
 * exists that runs every admitted job on its *fixed* requested GPU
 * count before its deadline (expressed here as Algorithm 1 over
 * fixed-size curves); best-effort jobs backfill leftover GPUs. The
 * missing ingredient relative to ElasticFlow is elasticity: a job can
 * never borrow extra GPUs to finish early or shrink to fit, which is
 * precisely the gap Fig. 6 quantifies.
 */
#ifndef EF_SCHED_CHRONUS_H_
#define EF_SCHED_CHRONUS_H_

#include <string>

#include "sched/planning_util.h"
#include "sched/scheduler.h"

namespace ef {

/** See file comment. */
class ChronusScheduler : public Scheduler
{
  public:
    std::string name() const override { return "chronus"; }

    bool admit(const JobSpec &job) override;
    SchedulerDecision allocate() override;

    Time reschedule_interval() const override { return 600.0; }
};

}  // namespace ef

#endif  // EF_SCHED_CHRONUS_H_
