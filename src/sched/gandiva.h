/**
 * @file
 * Gandiva baseline (Xiao et al., OSDI'18) at the policy granularity
 * the paper evaluates: server-centric (each job runs on exactly the
 * GPU count its trace requested), not deadline-aware, with
 * introspective time-slicing — when the cluster is oversubscribed,
 * jobs rotate by least-recently-served so everyone keeps making
 * progress. The real system's introspective packing/migration is
 * modelled by compact best-fit placement.
 */
#ifndef EF_SCHED_GANDIVA_H_
#define EF_SCHED_GANDIVA_H_

#include <map>
#include <string>

#include "sched/scheduler.h"

namespace ef {

/** See file comment. */
class GandivaScheduler : public Scheduler
{
  public:
    std::string name() const override { return "gandiva"; }

    SchedulerDecision allocate() override;

    Time reschedule_interval() const override { return 1800.0; }

    /** The replan-failure count and last_served_: the rotation must
     *  survive a crash, or a recovered run slices differently. */
    void encode_recovery_state(std::string *out) const override;
    bool decode_recovery_state(const std::string &blob) override;

  private:
    /** Last time each job held GPUs (drives the rotation). */
    std::map<JobId, Time> last_served_;
};

}  // namespace ef

#endif  // EF_SCHED_GANDIVA_H_
