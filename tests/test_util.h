/**
 * @file
 * Shared helpers for scheduler/simulator tests: compact construction
 * of hand-crafted traces, and whole-file reads and writes for the
 * durability tests.
 */
#ifndef EF_TESTS_TEST_UTIL_H_
#define EF_TESTS_TEST_UTIL_H_

#include <fstream>
#include <iterator>
#include <string>

#include "workload/perf_model.h"
#include "workload/trace.h"

namespace ef {
namespace testutil {

/** The bytes of the file at @p path (empty when it is missing). */
inline std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** Replace the file at @p path with @p bytes. */
inline void
write_file(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Fluent builder for hand-crafted traces. */
class TraceBuilder
{
  public:
    explicit TraceBuilder(TopologySpec topology,
                          const std::string &name = "crafted")
    {
        trace_.name = name;
        trace_.topology = topology;
    }

    /**
     * Add an SLO job that would take @p standalone_s seconds on its
     * requested GPUs and must finish within @p tightness times that.
     */
    TraceBuilder &
    slo(DnnModel model, int batch, GpuCount requested, Time submit,
        Time standalone_s, double tightness)
    {
        Topology topo(trace_.topology);
        PerfModel perf(&topo);
        JobSpec job;
        job.id = static_cast<JobId>(trace_.jobs.size());
        job.model = model;
        job.global_batch = batch;
        job.requested_gpus = requested;
        job.submit_time = submit;
        job.name = model_name(model) + "#" + std::to_string(job.id);
        job.iterations = iterations_for_duration(perf, job, standalone_s);
        job.deadline = submit + tightness * standalone_s;
        job.kind = JobKind::kSlo;
        trace_.jobs.push_back(job);
        return *this;
    }

    /** Add a best-effort job (no deadline). */
    TraceBuilder &
    best_effort(DnnModel model, int batch, GpuCount requested,
                Time submit, Time standalone_s)
    {
        slo(model, batch, requested, submit, standalone_s, 1.0);
        trace_.jobs.back().kind = JobKind::kBestEffort;
        trace_.jobs.back().deadline = kTimeInfinity;
        return *this;
    }

    Trace
    build()
    {
        trace_.sort_by_submit_time();
        return trace_;
    }

  private:
    Trace trace_;
};

}  // namespace testutil
}  // namespace ef

#endif  // EF_TESTS_TEST_UTIL_H_
