/**
 * @file
 * Event-driven cluster simulator (paper §6.1 "Simulator").
 *
 * The simulator advances continuous time between job-level events
 * (arrival, completion, periodic scheduler ticks). Between events,
 * every running job makes fluid progress at the throughput the
 * performance model predicts for its *actual* placement, so
 * topology-induced slowdowns (Fig. 2b) hit schedulers that fragment.
 * Allocation changes pause the affected job for the modelled scaling /
 * migration overhead (Fig. 12b), exactly as the paper's simulator
 * "assigns the overhead to each job on each scheduling event".
 *
 * The simulator implements ClusterView, so schedulers observe job
 * progress and attained service through the same interface the real
 * platform's monitor module provides (Fig. 1).
 */
#ifndef EF_SIM_SIMULATOR_H_
#define EF_SIM_SIMULATOR_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "recover/fields.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/overhead_model.h"
#include "workload/perf_model.h"
#include "workload/trace.h"

namespace ef {

/**
 * Per-job deterministic throughput misestimation: the executor runs
 * each job at nominal throughput x (1 +/- noise), while schedulers
 * still see the nominal curve — models profiling error.
 */
struct NoiseConfig
{
    double throughput_error = 0.0;  ///< e.g. 0.02 = up to +/-2%
};

/**
 * Crash-consistent control plane (DESIGN.md §12): snapshot + write-
 * ahead journal under a directory, with deterministic recovery. A run
 * with an empty journal_dir is byte-identical to one predating this
 * knob; a recovered run's decisions and RunResult::state_hash are
 * bit-identical to an uninterrupted one.
 */
struct DurabilityConfig
{
    /** Directory holding snapshot.bin + journal.bin; empty = off. */
    std::string journal_dir;
    /** Round commits between checkpoints (each appends a history
     *  segment and restarts the journal). */
    std::uint64_t snapshot_every = 16;
    /** Resume from the directory instead of starting fresh. */
    bool recover = false;
};

/** Simulator knobs. */
struct SimConfig
{
    /** Hard stop (guards schedulers that never finish a job). */
    Time max_time = 400.0 * kDay;
    OverheadConfig overhead;
    /** Fault injection (server crashes, GPU faults, RPC loss,
     *  stragglers, checkpoint failures, scripted traces) and the
     *  checkpoint interval every eviction rolls back to. All-zero
     *  rates = fully disabled: the run is then byte-identical to one
     *  without this member. */
    FaultConfig faults;
    NoiseConfig noise;
    /**
     * Merge all replan requests raised at one timestamp into a single
     * scheduler invocation (a completion burst or simultaneous
     * arrivals trigger one plan, not one per event).
     */
    bool coalesce_replans = true;
    /**
     * Skip a scheduler invocation when nothing it can observe changed
     * since the last decision at this same timestamp. Exact for
     * deterministic policies: the elided call would have returned the
     * identical decision, and re-applying a decision is a no-op.
     */
    bool elide_replans = true;
    /**
     * Ignored. Planning has a single sequential code path (DESIGN.md
     * §10); these members remain only because the end-to-end benchmark
     * (e2ebench/) still sets them, and go with its next revision.
     */
    int planner_shards = 0;
    /** Ignored; see planner_shards. */
    int planner_threads = 1;
    /** Crash consistency (snapshot + journal); off by default. */
    DurabilityConfig durability;
    /**
     * Ignored. Background defragmentation is gone: ElasticFlow's
     * migrating repack (paper §4.3) already relocates jobs. These two
     * members remain only because the end-to-end benchmark (e2ebench/)
     * still sets them, and go with its next revision.
     */
    struct
    {
        bool enabled = false;
        double budget_units_per_round = 0.0;
    } defrag;
};

/** Lifecycle of a job inside the simulator. */
enum class JobState {
    kDropped,    ///< rejected at submission
    kWaiting,    ///< admitted, not yet (or currently not) running
    kRunning,    ///< holds GPUs and makes progress (or is paused)
    kFinished,   ///< termination condition reached
};

/** Last enumerator; snapshot decoders range-check against it. */
constexpr JobState enum_last(JobState) { return JobState::kFinished; }

/** See file comment. */
class Simulator : public ClusterView
{
  public:
    Simulator(const Trace &trace, Scheduler *scheduler,
              SimConfig config = {});
    ~Simulator() override;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Run to completion and return the metrics. */
    RunResult run();

    /**
     * Open — or, with DurabilityConfig::recover, load and replay — the
     * durable log named in SimConfig::durability. Optional: run()
     * calls it implicitly (and aborts on failure); calling it first
     * lets a driver surface unreadable/corrupt snapshot or journal
     * input as a typed error instead.
     */
    recover::Status prepare_durability();

    /**
     * run() ended early because an injected scheduler crash
     * (FaultType::kSchedCrash) fired at a round commit. The journal
     * directory then holds everything needed to resume: a fresh
     * Simulator with durability.recover set continues bit-identically.
     */
    bool crashed() const { return crashed_; }

    /**
     * Write a checkpoint of the current state immediately (the cadence
     * snapshot machinery, callable by benchmarks and tests): the
     * log's first one is a base, later ones a history segment plus a
     * journal head (DESIGN.md §12).
     */
    recover::Status write_snapshot_now();

    /**
     * Determinism auditor: word hash (common/hash.h) of the hashed
     * fields listed in fields() — event clock, job table (state,
     * progress, attained service, pause windows), concrete GPU
     * allocations and availability, and the optional fault state.
     * Sampled and chained into RunResult::state_hash at every replan;
     * two runs of the same (trace, scheduler, config) must produce
     * identical digests, otherwise a hidden nondeterminism source
     * crept in. Scheduler-internal state is not hashed directly: every
     * decision it makes lands in the allocations, which are.
     *
     * Incremental (DESIGN.md §7): jobs that have not arrived, were
     * dropped or finished enter as one sealed sum kept at their
     * transitions, and the GPU tables as digests PlacementManager
     * keeps, so a sample costs O(active jobs).
     */
    std::uint64_t state_hash() const;

    /** state_hash() recomputed from every job and GPU row, ignoring
     *  the incremental caches: the oracle tests hold it to. */
    std::uint64_t recomputed_state_hash() const;

    /**
     * Persistent state (recover/fields.h): the one list the state
     * hash, the snapshot encoder and its decoder derive from. Defined
     * next to JobRt and Event in simulator.cc.
     */
    template <class V>
    void fields(V &v);

    // --- ClusterView ----------------------------------------------------
    GpuCount total_gpus() const override;
    Time now() const override { return now_; }
    std::vector<JobId> active_jobs() const override;
    const JobSpec &spec(JobId job) const override;
    const ScalingCurve &curve(JobId job) const override;
    ScalingCurve curve_for(const JobSpec &spec) const override;
    double remaining_iterations(JobId job) const override;
    GpuCount current_gpus(JobId job) const override;
    double attained_gpu_seconds(JobId job) const override;
    std::uint64_t fault_epoch() const override { return fault_epoch_; }

  private:
    struct JobRt;
    struct Event;
    static bool event_after(const Event &a, const Event &b);

    /** Algorithm 1 admission verdict for an arriving job. */
    void handle_arrival(JobId id);
    void handle_completion_check(JobId id);
    void handle_tick();
    void handle_server_down(const Event &event);
    void handle_server_up(int server);
    void handle_gpu_down(const Event &event);
    void handle_gpu_up(GpuCount gpu);
    void handle_straggler_start(const Event &event);
    void handle_straggler_end(JobId id);
    void schedule_next_failure(int server);
    void schedule_next_gpu_fault();
    void queue_scripted_faults();
    /** Evict one placed job (fault path): release, roll back to its
     *  last checkpoint, count the failure. */
    void evict_job(JobId id);
    /**
     * Unreliable delivery of the resize command for @p job: charges
     * retry backoff into @p penalty and returns false when every
     * attempt was lost (the command must not be applied).
     */
    bool deliver_resize(JobId id, Time *penalty);

    /**
     * Note that the current event wants the scheduler re-run. The
     * actual invocation happens in flush_replan(): immediately when
     * coalescing is off, otherwise once the event loop has drained
     * every event at the current timestamp.
     */
    void request_replan();
    void push_event(const Event &event);
    /** Run the scheduler (unless elidable) and apply its decision. */
    void flush_replan();
    /** Fold state_hash() into the chained RunResult digest and commit
     *  the round to the durable log (terminal = the run's final
     *  sample). */
    void audit_state(bool terminal = false);
    void apply_decision(const SchedulerDecision &decision);
    /** Sample the fragmentation gauges and series. */
    void record_fragmentation();
    void apply_resize(JobRt &job, GpuCount desired);
    void charge_pause(JobRt &job, Time seconds);
    void refresh_throughput(JobRt &job);
    void schedule_completion(JobRt &job);
    void advance_progress(Time to);
    void record_timelines();
    bool any_nonterminal_jobs() const;
    bool work_pending() const;
    void arm_tick();

    // --- durability (DESIGN.md §12) -------------------------------------
    /** One round-commit journal record. */
    struct ReplayCommit
    {
        std::uint64_t round = 0;
        Time time = 0.0;
        std::uint64_t hash = 0;
        std::uint64_t crash_cursor = 0;
        bool terminal = false;

        template <class V>
        void
        fields(V &v)
        {
            v.journal(round, time, hash, crash_cursor, terminal);
        }
    };
    /** Digest of the trace, topology, scheduler and config a snapshot
     *  is only valid against; prepare_durability() stores it in
     *  fingerprint_. */
    std::uint64_t compute_fingerprint() const;
    recover::Status recover_state(const std::string &snapshot,
                                  const recover::JournalContents &tail);
    /** Round boundary: crash check, commit record, fsync, snapshot
     *  cadence — or, while replaying, hash verification instead. */
    void commit_round(bool terminal);
    /** Replay verified: re-anchor the log at the recovered state. */
    void finish_recovery();
    /** Re-executing journaled rounds (journaling suppressed). */
    bool replaying() const { return replay_next_ < replay_.size(); }

    /** A fresh curve for @p spec's shape on this topology. */
    ScalingCurve build_curve(const JobSpec &spec) const;
    /** Point @p job at its trace row @p spec, its shape's curve and its
     *  noise factor: what the snapshot leaves to the trace and config. */
    void bind(JobRt &job, const JobSpec &spec) const;

    JobRt &rt(JobId id);
    const JobRt &rt(JobId id) const;
    /** The job with id @p id, or null when the trace has none. */
    const JobRt *find(JobId id) const;
    /** Index of @p job in jobs_. */
    std::size_t slot_of(const JobRt &job) const;

    /** The input, never changed: each job row points at its spec. */
    Trace trace_;
    Scheduler *scheduler_;
    SimConfig config_;
    /** compute_fingerprint(), set by prepare_durability(): trace,
     *  topology and config are fixed by then. */
    std::uint64_t fingerprint_ = 0;

    Topology topology_;
    PerfModel perf_;
    PlacementManager placement_;
    OverheadModel overhead_;
    /** One curve per (model, global batch) of the trace, built once
     *  and shared by every job of that shape and by curve_for(). */
    std::map<std::pair<DnnModel, int>, ScalingCurve> curves_;

    Time now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    /** Pending events, a binary heap under event_after. */
    std::vector<Event> events_;

    /** The job table in trace (submission) order, one slot per
     *  trace job (a decoded snapshot must match it slot for slot). */
    std::vector<JobRt> jobs_;
    /** (id, slot in jobs_), ascending by id: the index rt() searches. */
    std::vector<std::pair<JobId, std::uint32_t>> slot_of_id_;
    /**
     * The active jobs (arrived, not dropped or finished) as ascending
     * slots — every per-event and per-round walk visits only these —
     * and the state hash's sealed sum over all other jobs. Updated at
     * verdicts and completions; rebuilt when a snapshot is decoded.
     */
    recover::SplitCache active_;
    /** Jobs that arrived / were admitted so far (rebuilt on decode). */
    std::size_t arrived_ = 0;
    std::size_t admitted_ = 0;

    bool tick_armed_ = false;
    /** A replan request is waiting for the current timestamp to drain. */
    bool replan_pending_ = false;
    /** Scheduler-visible state changed since the last decision. */
    bool view_dirty_ = true;
    Time last_decision_time_ = -kTimeInfinity;

    /** Null unless some fault class is enabled. */
    std::unique_ptr<FaultInjector> fault_;
    /** Capacity-affecting fault events so far (ClusterView). */
    std::uint64_t fault_epoch_ = 0;

    /** Null unless durability is configured; write side only (null
     *  while replaying a journal tail — recovery loads read-only). */
    std::unique_ptr<recover::DurableLog> durable_;
    bool durability_ready_ = false;
    /** State was restored from a snapshot (skip run() seeding). */
    bool recovered_ = false;
    /** Round commits awaiting re-execution verification. */
    std::vector<ReplayCommit> replay_;
    std::size_t replay_next_ = 0;
    /** Valid journal bytes at recovery: where post-replay appends
     *  resume, so the pre-crash tail stays recoverable until the next
     *  base subsumes it. */
    std::uint64_t recovered_journal_bytes_ = 0;
    /** End of the chain recovery restored (for the reopen). */
    recover::ChainTip recovered_tip_;
    /** Scripted kSchedCrash events consumed so far. Persisted in every
     *  round-commit record *after* the crash check, so recovery never
     *  re-fires a crash that already happened. */
    std::uint64_t sched_crash_cursor_ = 0;
    /** Round of the last snapshot (cadence base). */
    std::uint64_t snapshot_round_ = 0;
    /** A cadence snapshot is due at the next event-loop boundary. */
    bool snapshot_pending_ = false;
    bool crashed_ = false;

    RunResult result_;
};

}  // namespace ef

#endif  // EF_SIM_SIMULATOR_H_

