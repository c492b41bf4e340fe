/**
 * @file
 * CSV import/export of traces, so real production traces (submission
 * time, GPU count, duration-derived iterations) can be fed to the
 * schedulers and generated traces can be archived with results.
 *
 * Columns: id,name,model,global_batch,iterations,submit_time,deadline,
 * kind,requested_gpus. Deadline is the literal "inf" for best-effort
 * jobs. A trace CSV holds only jobs; the cluster topology is supplied
 * separately by the caller.
 */
#ifndef EF_WORKLOAD_TRACE_IO_H_
#define EF_WORKLOAD_TRACE_IO_H_

#include <optional>
#include <string>

#include "workload/trace.h"

namespace ef {

/** Serialize the jobs of a trace to CSV text. */
std::string trace_to_csv(const Trace &trace);

/** Write a trace's jobs to a CSV file. */
void save_trace_csv(const std::string &path, const Trace &trace);

/** Why a trace CSV could not be loaded. */
struct TraceError
{
    /** 1-based CSV line at fault; 0 when the file as a whole is. */
    int line = 0;
    std::string message;

    /** "trace line 3: ..." (just the message for whole-file errors). */
    std::string to_string() const;
};

/**
 * Load a CSV trace file with the given topology. Every problem — an
 * unreadable file, a missing column, a malformed row, a negative or
 * duplicate job id, an unknown model or job kind, non-positive sizes,
 * or no jobs at all — is returned as
 * a line-numbered TraceError (the first one found) instead of
 * aborting.
 */
std::optional<TraceError> try_load_trace_csv(const std::string &path,
                                             const TopologySpec &topology,
                                             const std::string &name,
                                             Trace *out);

/** Load jobs from CSV; aborts with the TraceError's text on bad
 *  input. */
Trace load_trace_csv(const std::string &path, const TopologySpec &topology,
                     const std::string &name = "csv-trace");

/** Parse CSV text (same format and contract as load_trace_csv). */
Trace parse_trace_csv(const std::string &text, const TopologySpec &topology,
                      const std::string &name = "csv-trace");

}  // namespace ef

#endif  // EF_WORKLOAD_TRACE_IO_H_
