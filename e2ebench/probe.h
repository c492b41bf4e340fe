/**
 * @file
 * Outside-in layer probes for the end-to-end benchmark.
 *
 * Every per-layer number is taken by timing calls into a layer's
 * public functions from here, never from inside src/: a forwarding
 * Scheduler times admit()/allocate() of the real policy, and binds
 * that policy to a ClusterView that counts the calls it makes; the
 * span recorder keeps one (name, start, end, parent, job) record per
 * probed call in memory and writes them once, at the end.
 */
#ifndef EF_E2EBENCH_PROBE_H_
#define EF_E2EBENCH_PROBE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.h"
#include "sim/simulator.h"

namespace ef {
namespace e2e {

inline std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank quantile of @p values (0 when empty). */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size()) + 0.5);
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** In-memory span log; spans of one job share its id (-1 = none). */
class Spans
{
  public:
    struct Span
    {
        const char *name;
        std::int64_t start_ns;
        std::int64_t end_ns;
        std::int32_t parent;
        JobId job;
    };

    /** Open a span now; returns its index (the id children point at). */
    std::int32_t
    open(const char *name, std::int32_t parent = -1,
         JobId job = kInvalidJob)
    {
        spans_.push_back({name, now_ns(), 0, parent, job});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    /** Close span @p id now and return its duration in ns. */
    std::int64_t
    close(std::int32_t id)
    {
        Span &s = spans_[static_cast<std::size_t>(id)];
        s.end_ns = now_ns();
        return s.end_ns - s.start_ns;
    }

    /** Write every span as one JSON document; false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fputs("{\"spans\": [\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %lld, \"end_ns\": %lld, "
                         "\"parent\": %d, \"job\": %lld}\n",
                         i == 0 ? "" : ",", i, s.name,
                         static_cast<long long>(s.start_ns),
                         static_cast<long long>(s.end_ns), s.parent,
                         static_cast<long long>(s.job));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    std::vector<Span> spans_;
};

/** ClusterView that forwards to the simulator and counts every call. */
class CountingView : public ClusterView
{
  public:
    const ClusterView *inner = nullptr;
    mutable std::uint64_t calls = 0;

    GpuCount total_gpus() const override
    {
        ++calls;
        return inner->total_gpus();
    }
    Time now() const override
    {
        ++calls;
        return inner->now();
    }
    std::vector<JobId> active_jobs() const override
    {
        ++calls;
        return inner->active_jobs();
    }
    const JobSpec &spec(JobId job) const override
    {
        ++calls;
        return inner->spec(job);
    }
    const ScalingCurve &curve(JobId job) const override
    {
        ++calls;
        return inner->curve(job);
    }
    ScalingCurve curve_for(const JobSpec &spec) const override
    {
        ++calls;
        return inner->curve_for(spec);
    }
    double remaining_iterations(JobId job) const override
    {
        ++calls;
        return inner->remaining_iterations(job);
    }
    GpuCount current_gpus(JobId job) const override
    {
        ++calls;
        return inner->current_gpus(job);
    }
    double attained_gpu_seconds(JobId job) const override
    {
        ++calls;
        return inner->attained_gpu_seconds(job);
    }
    std::uint64_t fault_epoch() const override
    {
        ++calls;
        return inner->fault_epoch();
    }
};

/**
 * Forwarding scheduler: wraps the real policy, times every admit()
 * and allocate() into spans, and after each allocate() times one
 * Simulator::state_hash() call (the simulator hashes at the same
 * cadence, so per-call cost x samples estimates its hash time).
 */
class ProbeScheduler : public Scheduler
{
  public:
    ProbeScheduler(std::unique_ptr<Scheduler> inner, Spans *spans)
        : inner_(std::move(inner)), spans_(spans)
    {}

    /** Bind the policy to the counting view over @p sim; call after
     *  the simulator is constructed and before it runs. */
    void
    attach(const Simulator *sim, std::int32_t parent_span)
    {
        sim_ = sim;
        view_counter_.inner = sim;
        inner_->bind(&view_counter_);
        parent_ = parent_span;
    }

    std::string name() const override { return inner_->name(); }

    bool
    admit(const JobSpec &job) override
    {
        const std::int32_t span = spans_->open("sched.admit", parent_,
                                               job.id);
        const bool ok = inner_->admit(job);
        admit_ns.push_back(static_cast<double>(spans_->close(span)));
        admitted += ok ? 1 : 0;
        return ok;
    }

    SchedulerDecision
    allocate() override
    {
        std::int32_t span = spans_->open("sched.allocate", parent_);
        SchedulerDecision decision = inner_->allocate();
        allocate_ns.push_back(static_cast<double>(spans_->close(span)));
        span = spans_->open("sim.state_hash", parent_);
        hash_sink ^= sim_->state_hash();
        hash_ns.push_back(static_cast<double>(spans_->close(span)));
        return decision;
    }

    Time reschedule_interval() const override
    {
        return inner_->reschedule_interval();
    }
    PlacementStrategy placement_strategy() const override
    {
        return inner_->placement_strategy();
    }
    bool allow_migration() const override
    {
        return inner_->allow_migration();
    }
    int replan_failures() const override
    {
        return inner_->replan_failures();
    }
    std::vector<JobId> take_demotions() override
    {
        return inner_->take_demotions();
    }
    void set_planner_concurrency(int shards, int threads) override
    {
        inner_->set_planner_concurrency(shards, threads);
    }
    void encode_recovery_state(std::string *out) const override
    {
        inner_->encode_recovery_state(out);
    }
    bool decode_recovery_state(const std::string &blob) override
    {
        return inner_->decode_recovery_state(blob);
    }

    std::uint64_t view_calls() const { return view_counter_.calls; }

    std::vector<double> admit_ns;
    std::vector<double> allocate_ns;
    std::vector<double> hash_ns;
    std::uint64_t admitted = 0;
    /** Keeps the probed hash call observable. */
    std::uint64_t hash_sink = 0;

  private:
    std::unique_ptr<Scheduler> inner_;
    Spans *spans_;
    CountingView view_counter_;
    const Simulator *sim_ = nullptr;
    std::int32_t parent_ = -1;
};

}  // namespace e2e
}  // namespace ef

#endif  // EF_E2EBENCH_PROBE_H_
