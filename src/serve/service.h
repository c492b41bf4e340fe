/**
 * @file
 * Streaming submission front end over the ElasticFlow planning core.
 *
 * The batch pipeline (trace in, results out) assumes every submission
 * is worth a full planning pass. An always-on deployment cannot: under
 * an arrival storm, per-submission replans make the scheduler the
 * bottleneck and an unbounded queue turns overload into latency for
 * everyone. The Service accepts submissions one at a time and defends
 * itself explicitly:
 *
 *  - Bounded admission queue. Above the watermark a submission is shed
 *    *synchronously* with ShedVerdict::kShedQueueFull — O(1), no
 *    planning work, the streaming analogue of TCP backpressure.
 *  - Replan-cadence governor (serve/governor.h). Queued submissions
 *    are batched into one planning round per token; a round is forced
 *    (tokenless) when the oldest submission has waited the starvation
 *    horizon, so every queued submission gets its verdict within
 *    `governor.starvation_horizon_s`.
 *  - Planning watchdog. Each round's Algorithm 1 work is metered in
 *    deterministic cost units (AdmissionOutcome::cost — never wall
 *    clock, so runs replay bit-identically). A round whose min-share
 *    refresh exceeds `watchdog_budget` is abandoned: the service keeps
 *    the last committed plans, records `replan_timeout`, and retries
 *    the round with the budget lifted, draining the queue in one
 *    batch.
 *  - Fault-path integration. With a FaultInjector attached, submission
 *    RPCs are dropped by the injector's RPC class (the caller never
 *    gets a verdict, as in a lossy network), and scripted
 *    arrival-storm events drive the synthetic stream's rate
 *    (serve/stream.h).
 *
 * Between rounds, admitted jobs progress fluidly at the throughput of
 * their last Algorithm 2 allocation; completions are retired (with
 * interpolated finish times) at the start of the next round. The
 * service is an admission/allocation control plane, not a full
 * simulator: placement, migration, and checkpoint mechanics stay in
 * ef::sim.
 *
 * Determinism: submit/advance sequences are pure functions of the
 * inputs. state_hash() chains every committed round; two runs over the
 * same stream and config produce identical hashes.
 */
#ifndef EF_SERVE_SERVICE_H_
#define EF_SERVE_SERVICE_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/admission.h"
#include "core/scaling_curve.h"
#include "recover/fields.h"
#include "recover/log.h"
#include "serve/governor.h"
#include "serve/verdict.h"
#include "workload/job.h"

namespace ef {

class FaultInjector;

namespace serve {

/** One streamed submission: the job plus its profiled scaling curve. */
struct Submission
{
    JobSpec spec;
    ScalingCurve curve;

    /** Persistent state (recover/fields.h); journal only. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(spec, curve);
    }
};

/** Static configuration of a Service instance. */
struct ServiceConfig
{
    GpuCount total_gpus = 64;

    // --- planner (mirrors ElasticFlowConfig) ---------------------------
    Time slot_seconds = 300.0;
    int max_slots = 1 << 16;
    FillDirection direction = FillDirection::kEarliest;
    /** Relative safety margin on SLO remaining work (§4.3). */
    double admission_margin = 0.05;
    /** Absolute allowance for scaling pauses (seconds of progress). */
    Time overhead_allowance_s = 0.0;

    // --- overload control ----------------------------------------------
    /** Admission-queue watermark: submissions beyond this many pending
     *  are shed synchronously with kShedQueueFull. */
    std::size_t queue_watermark = 64;
    GovernorConfig governor;
    /** Accept deadline-infeasible SLO submissions as best-effort
     *  (kDegraded) instead of shedding them (kShedInfeasible). */
    bool degrade_infeasible = false;
    /** Cap on concurrently active best-effort jobs; beyond it,
     *  best-effort submissions are shed with kShedQueueFull. */
    std::size_t max_active_best_effort = 1024;
    /** Watchdog budget for one round's min-share refresh, in
     *  deterministic planning cost units (see AdmissionOutcome::cost);
     *  0 disables the watchdog. */
    std::uint64_t watchdog_budget = 0;
};

/** Monotonic counters of one service run. */
struct ServiceStats
{
    std::uint64_t submitted = 0;      ///< submissions that got a verdict
    std::uint64_t rpc_dropped = 0;    ///< submissions lost to RPC faults
    std::uint64_t admitted = 0;
    std::uint64_t admitted_best_effort = 0;
    std::uint64_t degraded = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_infeasible = 0;

    std::uint64_t rounds = 0;         ///< committed planning rounds
    std::uint64_t rounds_forced = 0;  ///< committed without a token
    std::uint64_t replan_timeouts = 0;///< watchdog abandonments
    std::uint64_t planning_cost = 0;  ///< total cost units spent

    std::uint64_t finished = 0;       ///< retired completions
    std::uint64_t deadline_misses = 0;///< retired past their deadline
    std::uint64_t demotions = 0;      ///< SLO parked to best-effort

    std::size_t max_queue_depth = 0;  ///< never exceeds the watermark

    /** Sheds of both kinds. */
    std::uint64_t shed() const
    {
        return shed_queue_full + shed_infeasible;
    }

    /**
     * Persistent state (recover/fields.h). The round count, forced
     * rounds, planning cost and queue high-water mark are journaled
     * but not hashed: each is implied by the folded round history.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(submitted, admitted, admitted_best_effort, degraded,
          shed_queue_full, shed_infeasible, rpc_dropped, replan_timeouts,
          finished, deadline_misses, demotions);
        v.journal(rounds, rounds_forced, planning_cost, max_queue_depth);
    }
};

/** The streaming admission/allocation service. */
class Service
{
  public:
    /** @p faults may be null (no fault injection); borrowed. */
    explicit Service(ServiceConfig config,
                     FaultInjector *faults = nullptr);

    /**
     * Submit one job. Advances the clock to spec.submit_time (running
     * any planning rounds that came due), then either sheds
     * synchronously, drops the RPC (fault path), or enqueues for the
     * next round. Submission times must be non-decreasing, and the id
     * must not be pending or active (admitted and not yet retired).
     */
    void submit(Submission submission);

    /** Advance the clock, running every planning round due by @p t. */
    void advance_to(Time t);

    /** Drain the queue with one final (forced) round. */
    void finish();

    Time now() const { return now_; }
    std::size_t queue_depth() const { return pending_.size(); }
    std::size_t active_jobs() const
    {
        return slo_.rows.size() + best_effort_.rows.size();
    }
    const ServiceStats &stats() const { return stats_; }
    const ServiceConfig &config() const { return config_; }

    /**
     * Chained word-hash digest over every committed round: clock,
     * verdict counters, active set (ids + remaining work), current
     * allocations, and the governor's bucket state. Two runs match
     * iff their whole decision histories match. The active set and
     * allocations enter as kept sums of per-row digests (DESIGN.md
     * §7); recover::recomputed_digest(*this) is the same fold with the
     * sums taken from scratch.
     */
    std::uint64_t state_hash() const { return hash_; }

    /**
     * Persistent state (recover/fields.h). Each committed round folds
     * the hashed fields, after the round's own arguments, into
     * state_hash(); snapshots carry every field. The clock, queue and
     * watchdog latches are journaled only: each round's fold already
     * pins them through the batch it drained.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(stats_, slo_, best_effort_);
        v.digest(governor_);
        v.digest(faults_);
        v.journal(now_, last_round_, next_due_, escalated_,
                  replan_failures_, pending_, hash_);
        v.after_decode([this] {
            for (const PlanningJob &job : slo_.rows) {
                if (!std::isfinite(job.deadline))
                    return false;
            }
            for (const PlanningJob &job : best_effort_.rows) {
                if (!job.best_effort())
                    return false;
            }
            return true;
        });
    }

    /**
     * Observer for every Decision in the order it is made. Optional —
     * the soak harness leaves it unset so a million-submission run
     * stores nothing per submission.
     */
    void set_decision_callback(std::function<void(const Decision &)> cb)
    {
        on_decision_ = std::move(cb);
    }

    /**
     * Durable control plane (DESIGN.md §12). Opens (or recovers
     * from) the snapshot + write-ahead journal under @p dir. With
     * @p recover false the directory is initialised fresh: a base
     * snapshot is written and every subsequent submission, external
     * advance, verdict, and round commit is journaled with fsync'd
     * commit points; every @p snapshot_every committed rounds a new
     * base replaces the snapshot and restarts the journal (the
     * service writes no history segments). With @p recover true the
     * last snapshot is loaded and the journal tail replayed through
     * the normal code paths: verdicts whose kVerdict record reached
     * the journal before the crash are suppressed (they were already
     * delivered — exactly-once), every replayed round must reproduce
     * its journaled hash, and a torn tail is discarded at the last
     * valid commit point. Call before the first submit(); returns a
     * typed Status instead of aborting on unreadable or corrupt
     * input.
     */
    recover::Status bind_durability(const std::string &dir,
                                    std::uint64_t snapshot_every,
                                    bool recover);

  private:
    /**
     * The active jobs of one class in id order (remaining work
     * unmargined), with each one's GPU count from the last committed
     * allocation aligned to it. Both columns are split() tables keyed
     * by job id whose sums change only with a row, so a round hashes
     * them in O(1) and keeps them current in O(rows that run or
     * change).
     */
    struct ActiveTable
    {
        std::vector<PlanningJob> rows;
        std::vector<GpuCount> gpus;
        recover::SplitCache row_sum;
        recover::SplitCache gpu_sum;

        /** Index of job @p id, or rows.size() when absent. */
        std::size_t find(JobId id) const;
        bool contains(JobId id) const { return find(id) < rows.size(); }
        /** Add @p job at its id's place, holding @p g GPUs. */
        void insert(PlanningJob job, GpuCount g);
        /** Remove row @p i; its GPU count goes to @p g. */
        PlanningJob take(std::size_t i, GpuCount *g);
        void set_gpus(std::size_t i, GpuCount g);
        /** Fluid progress over [from, from + dt] of the rows holding
         *  GPUs; completions are counted into @p stats (a miss past a
         *  finite deadline too) and compacted away. */
        void progress(Time from, Time dt, ServiceStats *stats);

        template <class V>
        void
        fields(V &v)
        {
            const auto sealed = [](const auto &) { return false; };
            const auto id = [this](std::size_t i) {
                return static_cast<std::uint64_t>(rows[i].id);
            };
            v.split(rows, sealed, row_sum, id);
            v.split(gpus, sealed, gpu_sum, id);
            v.after_decode([this] {
                if (gpus.size() != rows.size())
                    return false;
                for (std::size_t i = 0; i < rows.size(); ++i) {
                    if (gpus[i] < 0 ||
                        (i > 0 && rows[i - 1].id >= rows[i].id))
                        return false;
                }
                return true;
            });
        }
    };

    void decide(const Submission &submission, Time at,
                ShedVerdict verdict);
    /** Run one planning round at time @p t. */
    void run_round(Time t);
    /** Whether job @p id is queued or holds an active row. */
    bool pending_or_active(JobId id) const;
    /** advance_to() without journaling (shared with submit/replay). */
    void advance_internal(Time t);
    /** Digest of the configuration a snapshot is only valid against. */
    std::uint64_t config_fingerprint() const;
    /** Re-feed the journal tail through submit/advance/finish. */
    recover::Status replay_tail(const recover::JournalContents &tail);
    /** Append one record whose body is @p fields, in order; @p sync
     *  makes it a commit point. */
    template <class... T>
    void journal_append(recover::RecordKind kind, bool sync,
                        const T &...fields);
    /** Write a due cadence snapshot (end of each public entry). */
    void maybe_snapshot();
    recover::Status write_snapshot();
    bool replaying() const
    {
        return replay_round_next_ < replay_rounds_.size() ||
               replay_verdict_next_ < replay_verdicts_.size() ||
               replay_active_;
    }
    /** Fluid progress + completion retirement over [last_round_, t]. */
    void retire(Time t);
    /** Recompute when the next round is due (infinity when idle). */
    void arm();
    void fold_round_hash(Time t, std::size_t batch, bool forced);

    ServiceConfig config_;
    PlannerConfig planner_;
    FaultInjector *faults_;
    ReplanGovernor governor_;

    Time now_ = 0.0;
    Time last_round_ = 0.0;
    Time next_due_ = kTimeInfinity;
    bool escalated_ = false;  ///< watchdog retry in progress

    std::deque<Submission> pending_;
    /** The watchdog fallback keeps the GPU counts untouched when a
        round is abandoned. */
    ActiveTable slo_;
    ActiveTable best_effort_;
    int replan_failures_ = 0;

    ServiceStats stats_;
    std::uint64_t hash_ = 0x9e3779b97f4a7c15ULL;
    std::function<void(const Decision &)> on_decision_;

    // --- durability (DESIGN.md §12) ------------------------------------
    std::unique_ptr<recover::DurableLog> durable_;
    std::uint64_t snapshot_every_ = 16;
    std::uint64_t snapshot_round_ = 0;
    /** A cadence snapshot is due at the next entry-point boundary. */
    bool snapshot_pending_ = false;
    /** Journaled verdicts not yet matched by the replay. */
    struct ReplayVerdict
    {
        JobId id;
        std::uint8_t verdict;
    };
    std::vector<ReplayVerdict> replay_verdicts_;
    std::size_t replay_verdict_next_ = 0;
    /** Journaled round commits (round index, hash) to verify. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> replay_rounds_;
    std::size_t replay_round_next_ = 0;
    /** True while replay_tail() re-feeds journaled inputs. */
    bool replay_active_ = false;
};

}  // namespace serve
}  // namespace ef

#endif  // EF_SERVE_SERVICE_H_

