/**
 * @file
 * Elastic training executor model (paper §5, "Elastic scaling").
 *
 * Substitutes for the paper's PyTorch-DDP-based executor: a job runs
 * as a group of workers, each holding a model replica and a local
 * batch (global batch / workers); scaling checkpoints the parameters,
 * re-launches the worker group on the new GPU set, adjusts the local
 * batch to preserve the global batch, and resumes from the last
 * completed iteration. Progress is iteration-granular — a partially
 * executed iteration is lost on scaling, exactly like a
 * checkpoint/restore in the real system.
 *
 * The event simulator models progress as a fluid; integration tests
 * replay the same allocation timeline through this executor and check
 * the two agree within the paper's reported simulator fidelity (3%).
 */
#ifndef EF_EXEC_EXECUTOR_H_
#define EF_EXEC_EXECUTOR_H_

#include <vector>

#include "sim/overhead_model.h"
#include "workload/job.h"
#include "workload/perf_model.h"

namespace ef {

/** One data-parallel worker of a running job. */
struct Worker
{
    GpuCount gpu = -1;        ///< concrete GPU id
    int local_batch = 0;      ///< samples per iteration on this worker
    std::int64_t samples_processed = 0;
};

/** Iteration-granular execution state of one job. */
class JobExecution
{
  public:
    /** @p speed_factor scales the profiled throughput, as the
     *  simulator's noise_factor() does (1.0 = as profiled). */
    JobExecution(JobSpec spec, const PerfModel *perf,
                 const OverheadModel *overhead, double speed_factor = 1.0);

    const JobSpec &spec() const { return spec_; }

    /**
     * (Re)assign the job to a concrete GPU set at time @p now
     * (empty = suspend). Progress is first advanced to @p now, then a
     * checkpoint/restore is charged: the job resumes iterating only
     * after the scaling overhead elapses. A job that has finished by
     * @p now ignores the call. Aborts if the implied local batch
     * overflows GPU memory.
     */
    void scale(Time now, const std::vector<GpuCount> &gpus);

    /** Advance wall-clock time, executing whole iterations. */
    void advance(Time now);

    std::int64_t completed_iterations() const { return iterations_; }
    bool finished() const { return iterations_ >= spec_.iterations; }

    /** Time the current iteration count was reached (finish time once
     *  finished()). */
    Time last_progress_time() const { return cursor_; }

    const std::vector<Worker> &workers() const { return workers_; }
    GpuCount worker_count() const
    {
        return static_cast<GpuCount>(workers_.size());
    }

    /** Seconds per iteration on the current placement (0 if idle). */
    double iteration_seconds() const { return iteration_seconds_; }

    int checkpoints_taken() const { return checkpoints_; }

    /** Predicted completion time at the current rate (infinity when
     *  suspended). */
    Time finish_time_estimate() const;

  private:
    JobSpec spec_;
    const PerfModel *perf_;
    const OverheadModel *overhead_;
    double speed_factor_;

    std::vector<Worker> workers_;
    double iteration_seconds_ = 0.0;

    std::int64_t iterations_ = 0;
    Time cursor_ = 0.0;       ///< progress accounted up to here
    Time ready_at_ = 0.0;     ///< restore completes here; idle before
    int checkpoints_ = 0;
};

}  // namespace ef

#endif  // EF_EXEC_EXECUTOR_H_
