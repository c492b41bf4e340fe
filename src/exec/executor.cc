#include "exec/executor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ef {

JobExecution::JobExecution(JobSpec spec, const PerfModel *perf,
                           const OverheadModel *overhead,
                           double speed_factor)
    : spec_(std::move(spec)), perf_(perf), overhead_(overhead),
      speed_factor_(speed_factor)
{
    EF_CHECK(perf_ != nullptr && overhead_ != nullptr);
    EF_CHECK(speed_factor_ > 0.0);
    EF_FATAL_IF(spec_.iterations <= 0,
                "job " << spec_.id << " has no work");
    cursor_ = spec_.submit_time;
    ready_at_ = spec_.submit_time;
}

void
JobExecution::scale(Time now, const std::vector<GpuCount> &gpus)
{
    advance(now);
    if (finished())
        return;
    cursor_ = std::max(cursor_, now);

    GpuCount old_workers = worker_count();
    GpuCount new_workers = static_cast<GpuCount>(gpus.size());
    if (new_workers == old_workers && !workers_.empty()) {
        bool same = true;
        for (GpuCount w = 0; w < new_workers; ++w) {
            if (workers_[static_cast<std::size_t>(w)].gpu !=
                gpus[static_cast<std::size_t>(w)]) {
                same = false;
                break;
            }
        }
        if (same)
            return;  // nothing to do
    }

    // Checkpoint the parameters (partial iteration is lost), rebuild
    // the worker group, and restore after the scaling overhead.
    ++checkpoints_;
    Time pause = overhead_->scaling_seconds(spec_.model, old_workers,
                                            new_workers);
    ready_at_ = std::max(ready_at_, now + pause);

    workers_.clear();
    iteration_seconds_ = 0.0;
    if (new_workers == 0)
        return;

    // Local batch: ceil(global / workers), so the global batch is
    // preserved (the last worker may run a partial share).
    int local = (spec_.global_batch + new_workers - 1) / new_workers;
    const ModelProfile &profile = model_profile(spec_.model);
    EF_FATAL_IF(local > profile.max_local_batch,
                "job " << spec_.id << ": local batch " << local
                       << " exceeds " << profile.name << " memory limit "
                       << profile.max_local_batch);
    int remaining_batch = spec_.global_batch;
    for (GpuCount w = 0; w < new_workers; ++w) {
        Worker worker;
        worker.gpu = gpus[static_cast<std::size_t>(w)];
        worker.local_batch = std::min(local, remaining_batch);
        remaining_batch -= worker.local_batch;
        workers_.push_back(worker);
    }

    PlacementShape shape = perf_->shape_of(gpus);
    iteration_seconds_ = perf_->iteration_seconds(
                             spec_.model, spec_.global_batch, shape) /
                         speed_factor_;
    EF_CHECK(iteration_seconds_ > 0.0);
}

void
JobExecution::advance(Time now)
{
    if (finished())
        return;  // the cursor stays at the finish time
    if (workers_.empty() || iteration_seconds_ <= 0.0) {
        cursor_ = std::max(cursor_, now);
        return;
    }
    Time start = std::max(cursor_, ready_at_);
    if (now <= start) {
        return;
    }
    // Guard the cast: with a far-future `now` the raw step count can
    // exceed what int64 holds, so saturate at the remaining work.
    std::int64_t remaining_steps = spec_.iterations - iterations_;
    std::int64_t steps;
    if ((now - start) >=
        static_cast<double>(remaining_steps) * iteration_seconds_) {
        steps = remaining_steps;
    } else {
        steps = static_cast<std::int64_t>(
            std::floor((now - start) / iteration_seconds_));
        steps = std::min(steps, remaining_steps);
    }
    if (steps <= 0) {
        return;
    }
    iterations_ += steps;
    cursor_ = start + static_cast<double>(steps) * iteration_seconds_;
    for (Worker &worker : workers_) {
        worker.samples_processed +=
            steps * static_cast<std::int64_t>(worker.local_batch);
    }
}

Time
JobExecution::finish_time_estimate() const
{
    if (finished())
        return cursor_;
    if (workers_.empty() || iteration_seconds_ <= 0.0)
        return kTimeInfinity;
    Time start = std::max(cursor_, ready_at_);
    return start + static_cast<double>(spec_.iterations - iterations_) *
                       iteration_seconds_;
}

}  // namespace ef
