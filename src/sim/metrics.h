/**
 * @file
 * Experiment metrics (paper §6.1): deadline satisfactory ratio (the
 * headline metric), cluster efficiency (Eq. 8), JCT statistics for
 * best-effort jobs, makespan, and the timelines behind Figs. 7 and 10.
 */
#ifndef EF_SIM_METRICS_H_
#define EF_SIM_METRICS_H_

#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "workload/job.h"

namespace ef {

/** Everything that happened to one submitted job. */
struct JobOutcome
{
    JobSpec spec;
    bool admitted = false;   ///< false = dropped at submission
    bool finished = false;
    Time finish_time = kTimeInfinity;
    Time first_run_time = kTimeInfinity;
    double gpu_seconds = 0.0;  ///< attained service
    int scaling_events = 0;    ///< allocation size changes
    int migrations = 0;        ///< defragmentation relocations
    int failures_suffered = 0; ///< node/GPU-failure evictions (§4.4)
    /** SLO became unmeetable after a fault; runs on as best-effort. */
    bool demoted = false;

    /** Did the job complete by its deadline? (Dropped jobs did not.) */
    bool met_deadline() const
    {
        return finished && finish_time <= spec.deadline;
    }

    /** Completion time from submission (finished jobs only). */
    Time jct() const { return finish_time - spec.submit_time; }
};

/** One placement change, for replay/validation (§6.1 fidelity). */
struct AllocationEvent
{
    Time time = 0.0;
    JobId job = kInvalidJob;
    std::vector<GpuCount> gpus;  ///< empty = suspended/released

    template <class V>
    void
    fields(V &v)
    {
        v.journal(time, job, gpus);
    }
};

/** Full result of simulating one (trace, scheduler) pair. */
struct RunResult
{
    std::string scheduler_name;
    std::string trace_name;
    GpuCount total_gpus = 0;

    std::vector<JobOutcome> jobs;

    /** Every placement change, in time order (replay input). */
    std::vector<AllocationEvent> allocation_log;

    StepSeries used_gpus;           ///< allocated GPUs over time (Fig. 7a)
    StepSeries cluster_efficiency;  ///< Eq. 8 over time (Fig. 10)
    StepSeries submitted_jobs;      ///< cumulative submissions (Fig. 7b)
    StepSeries admitted_jobs;       ///< cumulative admissions (Fig. 7b)
    /** Buddy external fragmentation sampled at every replan (§3.2). */
    StepSeries buddy_fragmentation;
    /** Total cross-server span excess over placed jobs, same cadence. */
    StepSeries span_excess;

    Time makespan = 0.0;  ///< last completion time
    int replan_failures = 0;
    int placement_failures = 0;

    /** Replan requests raised by events (the naive invocation count). */
    int replans_attempted = 0;
    /** Requests merged into an already-pending same-timestamp replan. */
    int replans_coalesced = 0;
    /** Scheduler calls skipped because the view was provably unchanged
     *  since the last decision at the same timestamp. */
    int replans_elided = 0;

    // --- fault injection (all 0 on a healthy run) -----------------------
    /** Control-plane delivery attempts repeated after a loss. */
    int rpc_retries = 0;
    /** Commands abandoned after rpc_max_retries lost attempts. */
    int rpc_gave_up = 0;
    /** Straggler episodes (worker groups launched/turned slow). */
    int stragglers_observed = 0;
    /** Single-GPU faults injected (server-level crashes not counted). */
    int gpu_faults = 0;
    /** Checkpoint writes that failed (previous checkpoint survived). */
    int ckpt_failures = 0;
    /** SLO jobs demoted to best-effort after a fault (each once). */
    int slo_demotions = 0;

    // --- background defrag (all 0 unless SimConfig::defrag enabled) -----
    /** Governor-funded SA rounds planned (including empty ones). */
    int defrag_rounds = 0;
    /** Relocations committed by defrag rounds. */
    int defrag_moves = 0;
    /** Migration-cost budget units spent across all rounds. */
    double defrag_budget_spent = 0.0;

    // --- determinism audit ----------------------------------------------
    /**
     * Chained word-hash digest of Simulator::state_hash() sampled at
     * every replan and once after the run. A pure function of (trace,
     * scheduler, config): any cross-run difference means a hidden
     * nondeterminism source. Compare via run_trace --state-hash.
     */
    std::uint64_t state_hash = 0;
    /** Samples folded into state_hash (= replans run + elided + 1). */
    std::uint64_t state_hash_samples = 0;

    /**
     * Persistent state (recover/fields.h): what a run has accumulated
     * so far, journaled so a recovered run reports the same totals.
     * Names, totals and per-job rows are filled in at construction or
     * by run() itself, so they are not listed.
     */
    template <class V>
    void
    fields(V &v)
    {
        v.append(allocation_log);
        v.journal(used_gpus, cluster_efficiency,
                  submitted_jobs, admitted_jobs, buddy_fragmentation,
                  span_excess, makespan, placement_failures,
                  replans_attempted, replans_coalesced, replans_elided,
                  rpc_retries, rpc_gave_up, stragglers_observed,
                  gpu_faults, ckpt_failures, slo_demotions,
                  defrag_rounds, defrag_moves, defrag_budget_spent,
                  state_hash, state_hash_samples);
    }

    /** Jobs that met their deadline / all submitted SLO jobs. */
    double deadline_ratio() const;

    /** Same ratio restricted to one job kind (soft-deadline stats). */
    double deadline_ratio_of(JobKind kind) const;

    /** Number of SLO jobs that met their deadline. */
    std::size_t deadlines_met() const;

    std::size_t submitted(JobKind kind) const;
    std::size_t admitted_count() const;
    std::size_t dropped_count() const;
    std::size_t finished_count() const;

    /** Mean JCT over *finished* jobs of a kind (seconds). */
    double average_jct(JobKind kind) const;

    /** Time-averaged cluster efficiency over [0, horizon]. */
    double average_cluster_efficiency(Time horizon) const;

    /** Total GPU-seconds consumed by all jobs. */
    double total_gpu_seconds() const;
};

/** Time-averaged buddy external fragmentation over [0, makespan]. */
double average_fragmentation(const RunResult &result);
/** Buddy external fragmentation at the end of the run. */
double final_fragmentation(const RunResult &result);
/** Time-averaged total cross-server span excess over [0, makespan]. */
double average_span_excess(const RunResult &result);
/** Total cross-server span excess at the end of the run. */
double final_span_excess(const RunResult &result);

/** One-line human-readable summary for logs and benches. */
std::string summarize(const RunResult &result);

}  // namespace ef

#endif  // EF_SIM_METRICS_H_
