/**
 * @file
 * The structured trace vocabulary of `ef::obs`.
 *
 * Every observable action in the platform — job lifecycle, admission
 * verdicts, replans, scaling/migration, faults, control-plane traffic —
 * is one typed, sim-timestamped TraceEvent. Events are plain data: the
 * recorder never interprets them, sinks only buffer them, and the
 * Chrome-trace exporter (obs/chrome_trace.h) turns them into a
 * timeline after the run. Emission must never feed back into
 * simulation state; a run with recording enabled is byte-identical
 * (same RunResult, same state_hash) to one without.
 *
 * Field conventions per kind are documented on the enumerators; `a`
 * and `b` are generic integer payloads, `x` a generic scalar, and
 * `ids` a GPU-id list (allocation events only).
 */
#ifndef EF_OBS_EVENT_H_
#define EF_OBS_EVENT_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace ef {
namespace obs {

enum class EventKind {
    // --- job lifecycle (simulator) --------------------------------------
    kJobSubmit,       ///< job arrived; a = requested_gpus
    kJobAdmit,        ///< admission verdict: admitted
    kJobReject,       ///< admission verdict: dropped at submission
    kJobFinish,       ///< termination condition reached
    kJobEvict,        ///< fault eviction; x = iterations rolled back
    kJobDemote,       ///< SLO job demoted to best-effort after a fault

    // --- allocation and placement ---------------------------------------
    kAllocChange,     ///< job's concrete GPU set changed; ids = GPU ids
                      ///< (empty = suspended/released), a = old count
    kMigration,       ///< repack relocation; ids = new GPU ids
    kScale,           ///< resize applied; a = old count, b = new count
    kCheckpoint,      ///< checkpoint write; a = 1 ok / 0 failed
    kPlacementFail,   ///< placement request unsatisfiable; a = want

    // --- scheduler / planner --------------------------------------------
    kReplanBegin,     ///< scheduler invocation starts; a = active jobs
    kReplanEnd,       ///< a = 1 executed / 0 elided; b = resizes applied
    kAdmissionShare,  ///< Algorithm 1 filled one job; a = peak GPUs of
                      ///< its minimum satisfactory share, x = deadline
    kAdmissionOutcome,///< Algorithm 1 finished; a = feasible (0/1),
                      ///< b = jobs planned
    kAllocationRound, ///< Algorithm 2 finished; a = SLO jobs,
                      ///< b = best-effort jobs, x = unallocated GPUs

    // --- faults (simulator fault path) ----------------------------------
    kServerDown,      ///< a = server index, b = jobs evicted
    kServerUp,        ///< a = server index
    kGpuDown,         ///< a = GPU id, b = 1 if a job was evicted
    kGpuUp,           ///< a = GPU id
    kStragglerStart,  ///< x = slowdown factor
    kStragglerEnd,

    // --- control plane ---------------------------------------------------
    kRpcRetry,        ///< a = attempt number
    kRpcGiveUp,       ///< command abandoned after max retries
    kCommand,         ///< executor command issued; a = seq,
                      ///< b = CommandType as int

    // --- service mode (ef::serve, streaming admission) -------------------
    kServeShed,       ///< submission shed; a = ShedVerdict as int,
                      ///< b = queue depth at the verdict
    kServeRound,      ///< planning round drained the queue; a = batch
                      ///< size, b = 1 when horizon-forced (no token)
    kServeTimeout,    ///< replan watchdog fired; a = measured planning
                      ///< cost, b = budget

    // --- crash recovery (DESIGN.md §12) ----------------------------------
    kRecoveryBegin,   ///< snapshot loaded; a = journal records read,
                      ///< b = round commits to replay
    kRecoveryEnd,     ///< recovery verified; a = rounds replayed
};

/** Stable lowercase name (Chrome-trace event names, tests, dumps). */
const char *event_kind_name(EventKind kind);

/** One structured trace record. See the enumerator docs for fields. */
struct TraceEvent
{
    Time time = 0.0;
    EventKind kind = EventKind::kJobSubmit;
    JobId job = kInvalidJob;
    std::int64_t a = 0;
    std::int64_t b = 0;
    double x = 0.0;
    std::vector<std::int64_t> ids = {};
};

}  // namespace obs
}  // namespace ef

#endif  // EF_OBS_EVENT_H_
