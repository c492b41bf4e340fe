#include "obs/chrome_trace.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/json.h"

namespace ef {
namespace obs {
namespace {

constexpr std::int64_t kJobsPid = 1;
constexpr std::int64_t kGpusPid = 2;
constexpr std::int64_t kSchedPid = 3;

std::int64_t
micros(Time t)
{
    return static_cast<std::int64_t>(std::llround(t * 1e6));
}

/** An open "holds GPUs" interval on a job or GPU row. */
struct OpenSpan
{
    std::int64_t start_us = 0;
    std::int64_t arg = 0;  ///< GPU count (job rows) / job id (GPU rows)
};

class Exporter
{
  public:
    explicit Exporter(const std::vector<TraceEvent> &events)
        : events_(events)
    {}

    std::string render(std::uint64_t dropped);

  private:
    void meta_row(std::int64_t pid, std::int64_t tid,
                  const std::string &name);
    void meta_process(std::int64_t pid, const std::string &name);
    void complete(std::int64_t pid, std::int64_t tid,
                  const std::string &name, std::int64_t start_us,
                  std::int64_t end_us);
    void instant(std::int64_t pid, std::int64_t tid,
                 const char *name, std::int64_t ts);
    /** Start the args object of the event being written. */
    JsonWriter &args();

    void job_alloc_change(const TraceEvent &event);
    void close_job_span(JobId job, std::int64_t ts);
    void close_gpu_span(std::int64_t gpu, std::int64_t ts);

    const std::vector<TraceEvent> &events_;
    JsonWriter w_;

    std::map<JobId, OpenSpan> open_jobs_;
    std::map<std::int64_t, OpenSpan> open_gpus_;
    std::map<JobId, std::vector<std::int64_t>> held_gpus_;
    std::int64_t end_us_ = 0;
    std::int64_t replan_id_ = 0;
    std::int64_t recovery_id_ = 0;
};

void
Exporter::meta_process(std::int64_t pid, const std::string &name)
{
    w_.begin_object()
        .kv("name", "process_name")
        .kv("ph", "M")
        .kv("pid", pid)
        .kv("tid", std::int64_t{0})
        .key("args")
        .begin_object()
        .kv("name", name)
        .end_object()
        .end_object();
    w_.begin_object()
        .kv("name", "process_sort_index")
        .kv("ph", "M")
        .kv("pid", pid)
        .kv("tid", std::int64_t{0})
        .key("args")
        .begin_object()
        .kv("sort_index", pid)
        .end_object()
        .end_object();
}

void
Exporter::meta_row(std::int64_t pid, std::int64_t tid,
                   const std::string &name)
{
    w_.begin_object()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", pid)
        .kv("tid", tid)
        .key("args")
        .begin_object()
        .kv("name", name)
        .end_object()
        .end_object();
}

void
Exporter::complete(std::int64_t pid, std::int64_t tid,
                   const std::string &name, std::int64_t start_us,
                   std::int64_t end_us)
{
    w_.begin_object()
        .kv("name", name)
        .kv("ph", "X")
        .kv("pid", pid)
        .kv("tid", tid)
        .kv("ts", start_us)
        .kv("dur", std::max<std::int64_t>(0, end_us - start_us))
        .end_object();
}

void
Exporter::instant(std::int64_t pid, std::int64_t tid, const char *name,
                  std::int64_t ts)
{
    // Left open: the caller appends args{...} and closes the object.
    w_.begin_object()
        .kv("name", name)
        .kv("ph", "i")
        .kv("s", "t")
        .kv("pid", pid)
        .kv("tid", tid)
        .kv("ts", ts);
}

JsonWriter &
Exporter::args()
{
    return w_.key("args").begin_object();
}

void
Exporter::close_job_span(JobId job, std::int64_t ts)
{
    auto it = open_jobs_.find(job);
    if (it == open_jobs_.end())
        return;
    complete(kJobsPid, job,
             "run x" + std::to_string(it->second.arg),
             it->second.start_us, ts);
    open_jobs_.erase(it);
}

void
Exporter::close_gpu_span(std::int64_t gpu, std::int64_t ts)
{
    auto it = open_gpus_.find(gpu);
    if (it == open_gpus_.end())
        return;
    complete(kGpusPid, gpu, "job " + std::to_string(it->second.arg),
             it->second.start_us, ts);
    open_gpus_.erase(it);
}

void
Exporter::job_alloc_change(const TraceEvent &event)
{
    const std::int64_t ts = micros(event.time);
    const auto count = static_cast<std::int64_t>(event.ids.size());

    // Job row: close the previous holding interval, open the new one.
    close_job_span(event.job, ts);
    if (count > 0)
        open_jobs_[event.job] = OpenSpan{ts, count};

    // GPU rows: diff against what the job held before this change.
    std::vector<std::int64_t> &held = held_gpus_[event.job];
    for (std::int64_t gpu : held) {
        if (std::find(event.ids.begin(), event.ids.end(), gpu) ==
            event.ids.end()) {
            close_gpu_span(gpu, ts);
        }
    }
    for (std::int64_t gpu : event.ids) {
        auto it = open_gpus_.find(gpu);
        if (it != open_gpus_.end() && it->second.arg == event.job)
            continue;  // unchanged owner, keep the span running
        close_gpu_span(gpu, ts);  // defensive: stale foreign span
        open_gpus_[gpu] = OpenSpan{ts, event.job};
    }
    held = event.ids;
}

std::string
Exporter::render(std::uint64_t dropped)
{
    w_.begin_object();
    w_.key("traceEvents").begin_array();

    meta_process(kJobsPid, "jobs");
    meta_process(kGpusPid, "GPUs");
    meta_process(kSchedPid, "scheduler");
    meta_row(kSchedPid, 0, "replans");
    meta_row(kSchedPid, 1, "admission");
    meta_row(kSchedPid, 2, "faults");

    // Name every job / GPU row on first sight, in stream order.
    std::map<JobId, bool> seen_jobs;
    std::map<std::int64_t, bool> seen_gpus;
    for (const TraceEvent &event : events_) {
        end_us_ = std::max(end_us_, micros(event.time));
        if (event.job != kInvalidJob && !seen_jobs[event.job]) {
            seen_jobs[event.job] = true;
            meta_row(kJobsPid, event.job,
                     "job " + std::to_string(event.job));
        }
        if (event.kind == EventKind::kAllocChange ||
            event.kind == EventKind::kMigration) {
            for (std::int64_t gpu : event.ids) {
                if (!seen_gpus[gpu]) {
                    seen_gpus[gpu] = true;
                    meta_row(kGpusPid, gpu,
                             "gpu " + std::to_string(gpu));
                }
            }
        }
    }

    for (const TraceEvent &event : events_) {
        const std::int64_t ts = micros(event.time);
        switch (event.kind) {
          case EventKind::kAllocChange:
            job_alloc_change(event);
            break;
          case EventKind::kJobSubmit:
          case EventKind::kJobAdmit:
          case EventKind::kJobReject:
          case EventKind::kJobFinish:
          case EventKind::kJobEvict:
          case EventKind::kJobDemote:
          case EventKind::kScale:
          case EventKind::kCheckpoint:
          case EventKind::kMigration:
            instant(kJobsPid, event.job, event_kind_name(event.kind),
                    ts);
            args()
                .kv("a", event.a)
                .kv("b", event.b)
                .kv("x", event.x)
                .end_object();
            w_.end_object();
            break;
          case EventKind::kReplanBegin:
            w_.begin_object()
                .kv("name", "replan")
                .kv("cat", "replan")
                .kv("ph", "b")
                .kv("id", replan_id_)
                .kv("pid", kSchedPid)
                .kv("tid", std::int64_t{0})
                .kv("ts", ts);
            args().kv("active_jobs", event.a).end_object();
            w_.end_object();
            break;
          case EventKind::kReplanEnd:
            w_.begin_object()
                .kv("name", "replan")
                .kv("cat", "replan")
                .kv("ph", "e")
                .kv("id", replan_id_)
                .kv("pid", kSchedPid)
                .kv("tid", std::int64_t{0})
                .kv("ts", ts);
            args()
                .kv("outcome", event.a != 0 ? "executed" : "elided")
                .kv("resizes", event.b)
                .end_object();
            w_.end_object();
            ++replan_id_;
            break;
          case EventKind::kAdmissionShare:
          case EventKind::kAdmissionOutcome:
          case EventKind::kAllocationRound:
          case EventKind::kServeShed:
          case EventKind::kServeRound:
          case EventKind::kServeTimeout:
            instant(kSchedPid, 1, event_kind_name(event.kind), ts);
            args()
                .kv("job", event.job)
                .kv("a", event.a)
                .kv("b", event.b)
                .kv("x", event.x)
                .end_object();
            w_.end_object();
            break;
          case EventKind::kRecoveryBegin:
            // Async span on the scheduler's replan row: recovery is a
            // control-plane phase, visually aligned with the replans
            // it re-executes.
            w_.begin_object()
                .kv("name", "recovery")
                .kv("cat", "recovery")
                .kv("ph", "b")
                .kv("id", recovery_id_)
                .kv("pid", kSchedPid)
                .kv("tid", std::int64_t{0})
                .kv("ts", ts);
            args()
                .kv("journal_records", event.a)
                .kv("replay_rounds", event.b)
                .end_object();
            w_.end_object();
            break;
          case EventKind::kRecoveryEnd:
            w_.begin_object()
                .kv("name", "recovery")
                .kv("cat", "recovery")
                .kv("ph", "e")
                .kv("id", recovery_id_)
                .kv("pid", kSchedPid)
                .kv("tid", std::int64_t{0})
                .kv("ts", ts);
            args().kv("replayed", event.a).end_object();
            w_.end_object();
            ++recovery_id_;
            break;
          case EventKind::kServerDown:
          case EventKind::kServerUp:
          case EventKind::kGpuDown:
          case EventKind::kGpuUp:
          case EventKind::kStragglerStart:
          case EventKind::kStragglerEnd:
          case EventKind::kRpcRetry:
          case EventKind::kRpcGiveUp:
          case EventKind::kPlacementFail:
          case EventKind::kCommand:
            instant(kSchedPid, 2, event_kind_name(event.kind), ts);
            args()
                .kv("job", event.job)
                .kv("a", event.a)
                .kv("b", event.b)
                .kv("x", event.x)
                .end_object();
            w_.end_object();
            break;
        }
    }

    // Close intervals still open when the stream ended, so every held
    // allocation is visible to the last recorded timestamp.
    while (!open_jobs_.empty())
        close_job_span(open_jobs_.begin()->first, end_us_);
    while (!open_gpus_.empty())
        close_gpu_span(open_gpus_.begin()->first, end_us_);

    w_.end_array();
    w_.kv("displayTimeUnit", "ms");
    w_.key("otherData")
        .begin_object()
        .kv("generator", "ef::obs")
        .kv("dropped_events", dropped)
        .end_object();
    w_.end_object();
    return w_.str();
}

}  // namespace

std::string
chrome_trace_json(const std::vector<TraceEvent> &events,
                  std::uint64_t dropped_events)
{
    return Exporter(events).render(dropped_events);
}

}  // namespace obs
}  // namespace ef
