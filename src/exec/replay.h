/**
 * @file
 * Simulator-fidelity validation (paper §6.1: "Our simulator has very
 * high fidelity, with an error rate of no more than 3% compared with
 * the results in our real cluster experiments").
 *
 * This reproduction has no physical testbed, but it has the next best
 * thing: the iteration-granular executor (the "real system" model) and
 * the fluid event simulator. replay_and_compare() feeds the
 * simulator's recorded allocation timeline, event by event, to one
 * JobExecution per admitted job and compares per-job completion times.
 * Agreement bounds the error the fluid approximation introduces —
 * the analogue of the paper's simulator-vs-testbed comparison.
 */
#ifndef EF_EXEC_REPLAY_H_
#define EF_EXEC_REPLAY_H_

#include <vector>

#include "exec/executor.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace ef {

/** Per-job comparison between fluid simulation and executor replay. */
struct ReplayJobResult
{
    JobId job = kInvalidJob;
    Time sim_finish = kTimeInfinity;     ///< fluid simulator
    Time replay_finish = kTimeInfinity;  ///< executor replay
    /** |replay - sim| / (sim - submit); 0 when both never finish. */
    double relative_error = 0.0;
};

/** Aggregate fidelity report. */
struct ReplayReport
{
    std::vector<ReplayJobResult> jobs;
    double max_relative_error = 0.0;
    double mean_relative_error = 0.0;
    std::size_t compared = 0;
};

/**
 * Replay a run's allocation log through the executor and compare
 * completion times. Each job runs at the speed the run's @p noise gave
 * it. Only jobs that finished in the simulation and were not rolled
 * back by node failures are compared (failure rollback points differ
 * legitimately between the two models).
 */
ReplayReport replay_and_compare(const Trace &trace,
                                const RunResult &result,
                                const OverheadConfig &overhead_config,
                                const NoiseConfig &noise);

}  // namespace ef

#endif  // EF_EXEC_REPLAY_H_
