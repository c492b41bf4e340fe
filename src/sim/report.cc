#include "sim/report.h"

#include <fstream>  // ef-lint: allow(file-io: end-of-run report artifacts, not durable state)
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "common/json.h"
#include "common/table.h"

namespace ef {

std::string
jobs_report_csv(const RunResult &result)
{
    std::vector<std::string> header = {
        "id",          "name",        "user",
        "kind",        "model",       "global_batch",
        "iterations",  "submit_time", "deadline",
        "admitted",    "finished",    "finish_time",
        "met_deadline", "first_run",  "gpu_seconds",
        "scalings",    "migrations",  "failures",
    };
    std::vector<std::vector<std::string>> rows;
    for (const JobOutcome &job : result.jobs) {
        const JobSpec &spec = job.spec;
        rows.push_back({
            std::to_string(spec.id),
            spec.name,
            spec.user,
            job_kind_name(spec.kind),
            model_name(spec.model),
            std::to_string(spec.global_batch),
            std::to_string(spec.iterations),
            format_double(spec.submit_time, 3),
            is_unbounded(spec.deadline)
                ? "inf"
                : format_double(spec.deadline, 3),
            job.admitted ? "1" : "0",
            job.finished ? "1" : "0",
            job.finished ? format_double(job.finish_time, 3) : "inf",
            job.met_deadline() ? "1" : "0",
            is_unbounded(job.first_run_time)
                ? "inf"
                : format_double(job.first_run_time, 3),
            format_double(job.gpu_seconds, 1),
            std::to_string(job.scaling_events),
            std::to_string(job.migrations),
            std::to_string(job.failures_suffered),
        });
    }
    return to_csv(header, rows);
}

std::string
allocation_report_csv(const RunResult &result)
{
    std::vector<std::string> header = {"time", "job", "gpus",
                                       "gpu_ids"};
    std::vector<std::vector<std::string>> rows;
    for (const AllocationEvent &event : result.allocation_log) {
        std::string ids;
        for (std::size_t i = 0; i < event.gpus.size(); ++i) {
            if (i)
                ids += " ";
            ids += std::to_string(event.gpus[i]);
        }
        rows.push_back({format_double(event.time, 3),
                        std::to_string(event.job),
                        std::to_string(event.gpus.size()), ids});
    }
    return to_csv(header, rows);
}

std::string
summary_report(const RunResult &result)
{
    std::ostringstream out;
    out << "scheduler=" << result.scheduler_name << "\n"
        << "trace=" << result.trace_name << "\n"
        << "total_gpus=" << result.total_gpus << "\n"
        << "jobs=" << result.jobs.size() << "\n"
        << "admitted=" << result.admitted_count() << "\n"
        << "dropped=" << result.dropped_count() << "\n"
        << "finished=" << result.finished_count() << "\n"
        << "deadlines_met=" << result.deadlines_met() << "\n"
        << "deadline_ratio="
        << format_double(result.deadline_ratio(), 6) << "\n"
        << "soft_deadline_ratio="
        << format_double(
               result.deadline_ratio_of(JobKind::kSoftDeadline), 6)
        << "\n"
        << "avg_best_effort_jct_s="
        << format_double(result.average_jct(JobKind::kBestEffort), 1)
        << "\n"
        << "makespan_s=" << format_double(result.makespan, 1) << "\n"
        << "gpu_seconds="
        << format_double(result.total_gpu_seconds(), 1) << "\n"
        << "replan_failures=" << result.replan_failures << "\n"
        << "placement_failures=" << result.placement_failures << "\n"
        << "avg_buddy_fragmentation="
        << format_double(average_fragmentation(result), 6) << "\n"
        << "final_buddy_fragmentation="
        << format_double(final_fragmentation(result), 6) << "\n"
        << "avg_span_excess="
        << format_double(average_span_excess(result), 6) << "\n"
        << "final_span_excess="
        << format_double(final_span_excess(result), 6) << "\n";
    return out.str();
}

std::string
jobs_report_json(const RunResult &result)
{
    JsonWriter w;
    w.begin_array();
    for (const JobOutcome &job : result.jobs) {
        const JobSpec &spec = job.spec;
        w.begin_object();
        w.kv("id", spec.id);
        w.kv("name", spec.name);
        w.kv("user", spec.user);
        w.kv("kind", job_kind_name(spec.kind));
        w.kv("model", model_name(spec.model));
        w.kv("global_batch", spec.global_batch);
        w.kv("iterations", spec.iterations);
        w.kv("submit_time", spec.submit_time);
        if (is_unbounded(spec.deadline))
            w.key("deadline").null();
        else
            w.kv("deadline", spec.deadline);
        w.kv("admitted", job.admitted);
        w.kv("finished", job.finished);
        if (job.finished)
            w.kv("finish_time", job.finish_time);
        else
            w.key("finish_time").null();
        w.kv("met_deadline", job.met_deadline());
        if (is_unbounded(job.first_run_time))
            w.key("first_run").null();
        else
            w.kv("first_run", job.first_run_time);
        w.kv("gpu_seconds", job.gpu_seconds);
        w.kv("scalings", job.scaling_events);
        w.kv("migrations", job.migrations);
        w.kv("failures", job.failures_suffered);
        w.end_object();
    }
    w.end_array();
    return w.str();
}

std::string
summary_report_json(const RunResult &result)
{
    JsonWriter w;
    w.begin_object();
    w.kv("scheduler", result.scheduler_name);
    w.kv("trace", result.trace_name);
    w.kv("total_gpus", result.total_gpus);
    w.kv("jobs", static_cast<std::uint64_t>(result.jobs.size()));
    w.kv("admitted",
         static_cast<std::int64_t>(result.admitted_count()));
    w.kv("dropped", static_cast<std::int64_t>(result.dropped_count()));
    w.kv("finished",
         static_cast<std::int64_t>(result.finished_count()));
    w.kv("deadlines_met",
         static_cast<std::int64_t>(result.deadlines_met()));
    w.kv("deadline_ratio", result.deadline_ratio());
    w.kv("soft_deadline_ratio",
         result.deadline_ratio_of(JobKind::kSoftDeadline));
    w.kv("avg_best_effort_jct_s",
         result.average_jct(JobKind::kBestEffort));
    w.kv("makespan_s", result.makespan);
    w.kv("gpu_seconds", result.total_gpu_seconds());
    w.kv("replan_failures", result.replan_failures);
    w.kv("placement_failures", result.placement_failures);
    // Fragmentation (§3.2).
    w.kv("avg_buddy_fragmentation", average_fragmentation(result));
    w.kv("final_buddy_fragmentation", final_fragmentation(result));
    w.kv("avg_span_excess", average_span_excess(result));
    w.kv("final_span_excess", final_span_excess(result));
    w.end_object();
    return w.str();
}

std::string
save_run_report(const std::string &prefix, const RunResult &result)
{
    auto write = [](const std::string &path, const std::string &text) {
        // ef-lint: allow(file-io: end-of-run report artifacts, not durable state)
        std::ofstream out(path);
        EF_FATAL_IF(!out, "cannot write report file: " << path);
        out << text;
    };
    write(prefix + ".jobs.csv", jobs_report_csv(result));
    write(prefix + ".alloc.csv", allocation_report_csv(result));
    write(prefix + ".jobs.json", jobs_report_json(result));
    write(prefix + ".summary.json", summary_report_json(result));
    std::string summary = summary_report(result);
    write(prefix + ".summary", summary);
    return summary;
}

}  // namespace ef
