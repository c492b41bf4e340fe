#include "workload/trace_io.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.h"
#include "common/csv.h"

namespace ef {
namespace {

std::string
format_time(Time t)
{
    if (is_unbounded(t))
        return "inf";
    std::ostringstream out;
    out.precision(9);
    out << t;
    return out.str();
}

bool
parse_time(const std::string &s, Time *out)
{
    if (s == "inf") {
        *out = kTimeInfinity;
        return true;
    }
    return parse_number(s, out);
}

/** See try_load_trace_csv(); @p text is the file contents. */
std::optional<TraceError>
try_parse_trace_csv(const std::string &text, const TopologySpec &topology,
                    const std::string &name, Trace *out)
{
    CsvTable table = parse_csv(text);
    for (const char *column :
         {"id", "name", "model", "global_batch", "iterations",
          "submit_time", "deadline", "kind", "requested_gpus"}) {
        if (table.column_index(column) < 0) {
            return TraceError{1, std::string("missing column '") +
                                     column + "'"};
        }
    }
    Trace trace;
    trace.name = name;
    trace.topology = topology;
    std::map<JobId, int> id_line;  // each id's first line
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        // Header is line 1, so data row r lives on line r + 2.
        const int line = static_cast<int>(r) + 2;
        const auto bad = [line](const std::string &why) {
            return TraceError{line, why};
        };
        if (table.rows[r].size() != table.header.size()) {
            return bad("expected " + std::to_string(table.header.size()) +
                       " fields, got " +
                       std::to_string(table.rows[r].size()));
        }
        const auto cell = [&](const char *column) -> const std::string & {
            return table.rows[r][static_cast<std::size_t>(
                table.column_index(column))];
        };
        const auto nan = [&](const char *column) {
            return bad("column '" + std::string(column) + "': '" +
                       cell(column) + "' is not a number");
        };
        JobSpec job;
        if (!parse_number(cell("id"), &job.id))
            return nan("id");
        // Negative ids are reserved: kInvalidJob (-1) marks a free GPU.
        if (job.id < 0)
            return bad("job id " + std::to_string(job.id) + " is negative");
        const auto [first, fresh] = id_line.emplace(job.id, line);
        if (!fresh) {
            return bad("duplicate job id " + std::to_string(job.id) +
                       " (first on line " + std::to_string(first->second) +
                       ")");
        }
        job.name = cell("name");
        if (table.column_index("user") >= 0)
            job.user = cell("user");
        const std::optional<DnnModel> model = find_model(cell("model"));
        if (!model.has_value())
            return bad("unknown model name '" + cell("model") + "'");
        job.model = *model;
        if (!parse_number(cell("global_batch"), &job.global_batch))
            return nan("global_batch");
        if (!parse_number(cell("iterations"), &job.iterations))
            return nan("iterations");
        if (!parse_time(cell("submit_time"), &job.submit_time))
            return nan("submit_time");
        if (!parse_time(cell("deadline"), &job.deadline))
            return nan("deadline");
        const std::string &kind = cell("kind");
        if (kind == "slo") {
            job.kind = JobKind::kSlo;
        } else if (kind == "soft") {
            job.kind = JobKind::kSoftDeadline;
        } else if (kind == "best-effort") {
            job.kind = JobKind::kBestEffort;
        } else {
            return bad("unknown job kind '" + kind + "'");
        }
        if (!parse_number(cell("requested_gpus"), &job.requested_gpus))
            return nan("requested_gpus");
        const std::string id = "job " + std::to_string(job.id);
        if (job.iterations <= 0)
            return bad(id + " has non-positive iterations");
        if (job.global_batch <= 0)
            return bad(id + " has non-positive batch");
        if (job.requested_gpus <= 0)
            return bad(id + " has non-positive GPU request");
        trace.jobs.push_back(std::move(job));
    }
    if (trace.jobs.empty())
        return TraceError{0, "trace has no jobs"};
    trace.sort_by_submit_time();
    *out = std::move(trace);
    return std::nullopt;
}

}  // namespace

std::string
trace_to_csv(const Trace &trace)
{
    std::vector<std::string> header = {
        "id", "name", "user", "model", "global_batch", "iterations",
        "submit_time", "deadline", "kind", "requested_gpus",
    };
    std::vector<std::vector<std::string>> rows;
    rows.reserve(trace.jobs.size());
    for (const JobSpec &job : trace.jobs) {
        rows.push_back({
            std::to_string(job.id),
            job.name,
            job.user,
            model_name(job.model),
            std::to_string(job.global_batch),
            std::to_string(job.iterations),
            format_time(job.submit_time),
            format_time(job.deadline),
            job_kind_name(job.kind),
            std::to_string(job.requested_gpus),
        });
    }
    return to_csv(header, rows);
}

void
save_trace_csv(const std::string &path, const Trace &trace)
{
    std::ofstream out(path);
    EF_FATAL_IF(!out, "cannot write trace file: " << path);
    out << trace_to_csv(trace);
}

std::string
TraceError::to_string() const
{
    if (line <= 0)
        return message;
    return "trace line " + std::to_string(line) + ": " + message;
}

std::optional<TraceError>
try_load_trace_csv(const std::string &path, const TopologySpec &topology,
                   const std::string &name, Trace *out)
{
    std::ifstream in(path);
    if (!in)
        return TraceError{0, "cannot open trace file: " + path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return try_parse_trace_csv(buffer.str(), topology, name, out);
}

Trace
parse_trace_csv(const std::string &text, const TopologySpec &topology,
                const std::string &name)
{
    Trace trace;
    const std::optional<TraceError> error =
        try_parse_trace_csv(text, topology, name, &trace);
    EF_FATAL_IF(error.has_value(), error->to_string());
    return trace;
}

Trace
load_trace_csv(const std::string &path, const TopologySpec &topology,
               const std::string &name)
{
    Trace trace;
    const std::optional<TraceError> error =
        try_load_trace_csv(path, topology, name, &trace);
    EF_FATAL_IF(error.has_value(), error->to_string());
    return trace;
}

}  // namespace ef
