/**
 * @file
 * Job descriptions: what a DL developer submits through ElasticFlow's
 * serverless interface (paper §3.1).
 *
 * A job names its DNN model and hyperparameters (global batch size),
 * its termination condition (a maximum number of iterations), and a
 * deadline. It deliberately does NOT name a GPU count — deciding the
 * number of workers and the local batch size is the platform's problem.
 * The requested_gpus field exists only so the server-centric baseline
 * schedulers (Gandiva, Tiresias, Themis, Chronus) can be driven from
 * the same traces, mirroring the paper's methodology.
 */
#ifndef EF_WORKLOAD_JOB_H_
#define EF_WORKLOAD_JOB_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "workload/model_zoo.h"

namespace ef {

/**
 * SLO jobs carry hard deadlines and are dropped when unsatisfiable;
 * soft-deadline jobs keep running even when their deadline cannot be
 * guaranteed (scheduled like best-effort after minimum shares, §4.4);
 * best-effort jobs have no deadline at all.
 */
enum class JobKind { kSlo, kSoftDeadline, kBestEffort };

/** Last enumerator; snapshot decoders range-check against it. */
constexpr JobKind enum_last(JobKind) { return JobKind::kBestEffort; }

std::string job_kind_name(JobKind kind);

/** One trace entry / serverless function submission. */
struct JobSpec
{
    JobId id = kInvalidJob;
    std::string name;

    /** Submitting user (admission policies meter per user, §4.4). */
    std::string user = "default";

    DnnModel model = DnnModel::kResNet50;
    int global_batch = 128;

    /** Termination condition: maximum number of iterations M_i. */
    std::int64_t iterations = 0;

    Time submit_time = 0.0;

    /**
     * Absolute deadline D_i. kTimeInfinity for best-effort jobs.
     * Traces set deadline = submit + lambda * standalone duration with
     * lambda ~ U[0.5, 1.5] (paper §6.1).
     */
    Time deadline = kTimeInfinity;

    JobKind kind = JobKind::kSlo;

    /** True for jobs whose deadline is a wish, not a contract. */
    bool has_soft_deadline() const
    {
        return kind == JobKind::kSoftDeadline;
    }

    /**
     * GPU count the original server-centric trace requested; consumed
     * only by the non-elastic baselines. Power of two.
     */
    GpuCount requested_gpus = 1;

    bool is_best_effort() const { return kind == JobKind::kBestEffort; }

    /** Persistent state (recover/fields.h); journal only. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(id, name, user, model, global_batch, iterations,
                  submit_time, deadline, kind, requested_gpus);
    }
};

}  // namespace ef

#endif  // EF_WORKLOAD_JOB_H_
