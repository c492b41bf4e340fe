#include "obs/trace.h"

#include "common/check.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace ef {
namespace obs {

const char *
event_kind_name(EventKind kind)
{
    switch (kind) {
      case EventKind::kJobSubmit: return "job_submit";
      case EventKind::kJobAdmit: return "job_admit";
      case EventKind::kJobReject: return "job_reject";
      case EventKind::kJobFinish: return "job_finish";
      case EventKind::kJobEvict: return "job_evict";
      case EventKind::kJobDemote: return "job_demote";
      case EventKind::kAllocChange: return "alloc_change";
      case EventKind::kMigration: return "migration";
      case EventKind::kScale: return "scale";
      case EventKind::kCheckpoint: return "checkpoint";
      case EventKind::kPlacementFail: return "placement_fail";
      case EventKind::kReplanBegin: return "replan_begin";
      case EventKind::kReplanEnd: return "replan_end";
      case EventKind::kAdmissionShare: return "admission_share";
      case EventKind::kAdmissionOutcome: return "admission_outcome";
      case EventKind::kAllocationRound: return "allocation_round";
      case EventKind::kServerDown: return "server_down";
      case EventKind::kServerUp: return "server_up";
      case EventKind::kGpuDown: return "gpu_down";
      case EventKind::kGpuUp: return "gpu_up";
      case EventKind::kStragglerStart: return "straggler_start";
      case EventKind::kStragglerEnd: return "straggler_end";
      case EventKind::kRpcRetry: return "rpc_retry";
      case EventKind::kRpcGiveUp: return "rpc_give_up";
      case EventKind::kServeShed: return "serve_shed";
      case EventKind::kServeRound: return "serve_round";
      case EventKind::kServeTimeout: return "serve_timeout";
      case EventKind::kRecoveryBegin: return "recovery_begin";
      case EventKind::kRecoveryEnd: return "recovery_end";
    }
    return "?";
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity)
{
    EF_CHECK_MSG(capacity_ > 0, "ring buffer needs capacity >= 1");
    ring_.reserve(capacity_);
}

void
RingBufferSink::record(const TraceEvent &event)
{
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
        return;
    }
    full_ = true;
    ring_[head_] = event;
    head_ = (head_ + 1) % capacity_;
    if (dropped_ == 0) {
        // Exactly one warning per sink: under soak load every further
        // record() would otherwise flood stderr with the same news.
        EF_WARN("trace ring buffer full (capacity "
                << capacity_
                << "); oldest events are being dropped silently from "
                   "here on");
    }
    ++dropped_;
    count("obs.trace.dropped");
}

std::size_t
RingBufferSink::size() const
{
    return ring_.size();
}

std::vector<TraceEvent>
RingBufferSink::events() const
{
    if (!full_)
        return ring_;
    std::vector<TraceEvent> ordered;
    ordered.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i)
        ordered.push_back(ring_[(head_ + i) % capacity_]);
    return ordered;
}

}  // namespace obs
}  // namespace ef
