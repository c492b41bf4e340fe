#include "sched/scheduler.h"

#include "common/check.h"
#include "recover/fields.h"
#include "sched/chronus.h"
#include "sched/edf.h"
#include "sched/elastic_flow.h"
#include "sched/gandiva.h"
#include "sched/pollux.h"
#include "sched/themis.h"
#include "sched/tiresias.h"

namespace ef {

void
Scheduler::encode_recovery_state(std::string *out) const
{
    *out = recover::encode(replan_failures_);
}

bool
Scheduler::decode_recovery_state(const std::string &blob)
{
    return recover::decode(blob, replan_failures_).ok();
}

std::unique_ptr<Scheduler>
make_scheduler(const std::string &name)
{
    if (name == "elasticflow")
        return std::make_unique<ElasticFlowScheduler>();
    if (name == "edf")
        return std::make_unique<EdfScheduler>(EdfVariant::kPlain);
    if (name == "edf+admission")
        return std::make_unique<EdfScheduler>(EdfVariant::kWithAdmission);
    if (name == "edf+elastic")
        return std::make_unique<EdfScheduler>(EdfVariant::kWithElastic);
    if (name == "gandiva")
        return std::make_unique<GandivaScheduler>();
    if (name == "tiresias")
        return std::make_unique<TiresiasScheduler>();
    if (name == "themis")
        return std::make_unique<ThemisScheduler>();
    if (name == "chronus")
        return std::make_unique<ChronusScheduler>();
    if (name == "pollux")
        return std::make_unique<PolluxScheduler>();
    EF_FATAL_IF(true, "unknown scheduler '" << name << "'");
    return nullptr;  // unreachable
}

const std::vector<std::string> &
all_scheduler_names()
{
    static const std::vector<std::string> kNames = {
        "elasticflow", "edf", "gandiva", "tiresias",
        "themis", "chronus", "pollux",
    };
    return kNames;
}

}  // namespace ef
