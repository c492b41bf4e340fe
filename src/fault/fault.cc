#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <fstream>  // ef-lint: allow(file-io: read-only script input, not durable state)
#include <sstream>

#include "common/check.h"
#include "common/csv.h"
#include "obs/metrics.h"

namespace ef {
namespace {

/** Independent per-class stream seeds derived from the master seed. */
std::uint64_t
class_seed(std::uint64_t master, std::uint64_t klass)
{
    return master ^ (0x9e3779b97f4a7c15ULL * (klass + 1));
}

}  // namespace

std::string
fault_type_name(FaultType type)
{
    switch (type) {
      case FaultType::kServerCrash: return "server-crash";
      case FaultType::kGpuFault: return "gpu-fault";
      case FaultType::kStraggler: return "straggler";
      case FaultType::kRpcDrop: return "rpc-drop";
      case FaultType::kCkptFail: return "ckpt-fail";
      case FaultType::kArrivalStorm: return "arrival-storm";
      case FaultType::kSchedCrash: return "sched-crash";
    }
    return "?";
}

std::optional<FaultType>
fault_type_from_name(const std::string &name)
{
    if (name == "server-crash")
        return FaultType::kServerCrash;
    if (name == "gpu-fault")
        return FaultType::kGpuFault;
    if (name == "straggler")
        return FaultType::kStraggler;
    if (name == "rpc-drop")
        return FaultType::kRpcDrop;
    if (name == "ckpt-fail")
        return FaultType::kCkptFail;
    if (name == "arrival-storm")
        return FaultType::kArrivalStorm;
    if (name == "sched-crash")
        return FaultType::kSchedCrash;
    return std::nullopt;
}

bool
FaultConfig::any() const
{
    return server_mtbf_s > 0.0 || gpu_mtbf_s > 0.0 ||
           rpc_drop_prob > 0.0 || rpc_delay_prob > 0.0 ||
           straggler_prob > 0.0 || ckpt_failure_prob > 0.0 ||
           sched_crash_prob > 0.0 || !script.empty();
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)),
      // An explicit server seed replaces the derived one, so a run can
      // pin its crash sequence independently of the other classes.
      server_rng_(config_.server_seed != 0
                      ? config_.server_seed
                      : class_seed(config_.seed, 0)),
      gpu_rng_(class_seed(config_.seed, 1)),
      rpc_rng_(class_seed(config_.seed, 2)),
      straggler_rng_(class_seed(config_.seed, 3)),
      ckpt_rng_(class_seed(config_.seed, 4)),
      sched_rng_(class_seed(config_.seed, 5))
{
    EF_FATAL_IF(config_.rpc_max_retries < 0,
                "rpc_max_retries must be non-negative");
    EF_FATAL_IF(config_.straggler_slowdown < 1.0,
                "straggler_slowdown must be >= 1");
    for (const FaultEvent &ev : config_.script) {
        EF_FATAL_IF(ev.time < 0.0, "scripted fault at negative time "
                                       << ev.time);
        switch (ev.type) {
          case FaultType::kServerCrash:
          case FaultType::kGpuFault:
          case FaultType::kStraggler:
            queueable_.push_back(ev);
            break;
          case FaultType::kRpcDrop:
            armed_rpc_.push_back(ev);
            break;
          case FaultType::kCkptFail:
            armed_ckpt_.push_back(ev);
            break;
          case FaultType::kArrivalStorm:
            storms_.push_back(ev);
            break;
          case FaultType::kSchedCrash:
            armed_sched_.push_back(ev);
            break;
        }
    }
    auto by_time = [](const FaultEvent &a, const FaultEvent &b) {
        return a.time < b.time;
    };
    std::stable_sort(queueable_.begin(), queueable_.end(), by_time);
    std::stable_sort(armed_rpc_.begin(), armed_rpc_.end(), by_time);
    std::stable_sort(armed_ckpt_.begin(), armed_ckpt_.end(), by_time);
    std::stable_sort(storms_.begin(), storms_.end(), by_time);
    std::stable_sort(armed_sched_.begin(), armed_sched_.end(), by_time);
}

double
FaultInjector::arrival_rate_multiplier(Time now) const
{
    double multiplier = 1.0;
    for (const FaultEvent &storm : storms_) {
        if (storm.time > now)
            break;  // time-sorted
        const Time end = storm.time + storm.duration_s;
        if (now < end)
            multiplier *= storm.magnitude > 0.0 ? storm.magnitude : 2.0;
    }
    return multiplier;
}

Time
FaultInjector::server_crash_delay()
{
    EF_CHECK(server_crashes_enabled());
    obs::count("fault.server_crash_draws");
    return server_rng_.exponential(1.0 / config_.server_mtbf_s);
}

Time
FaultInjector::gpu_fault_delay(GpuCount total_gpus)
{
    EF_CHECK(gpu_faults_enabled() && total_gpus > 0);
    obs::count("fault.gpu_fault_draws");
    // Each GPU fails at rate 1/mtbf; the cluster-wide next fault is
    // the minimum of the per-GPU exponentials.
    return gpu_rng_.exponential(static_cast<double>(total_gpus) /
                                config_.gpu_mtbf_s);
}

GpuCount
FaultInjector::gpu_fault_target(GpuCount total_gpus)
{
    return static_cast<GpuCount>(
        gpu_rng_.uniform_int(0, total_gpus - 1));
}

bool
FaultInjector::rpc_attempt_lost()
{
    if (config_.rpc_drop_prob <= 0.0)
        return false;
    bool lost = rpc_rng_.flip(config_.rpc_drop_prob);
    if (lost)
        obs::count("fault.rpc_losses");
    return lost;
}

Time
FaultInjector::rpc_delay()
{
    if (config_.rpc_delay_prob <= 0.0)
        return 0.0;
    if (!rpc_rng_.flip(config_.rpc_delay_prob))
        return 0.0;
    return rpc_rng_.exponential(1.0 / config_.rpc_delay_mean_s);
}

Time
FaultInjector::rpc_backoff(int attempt) const
{
    EF_CHECK(attempt >= 1);
    Time backoff = config_.rpc_backoff_base_s *
                   std::pow(2.0, static_cast<double>(attempt - 1));
    return std::min(backoff, config_.rpc_backoff_cap_s);
}

bool
FaultInjector::straggler_starts()
{
    if (config_.straggler_prob <= 0.0)
        return false;
    bool starts = straggler_rng_.flip(config_.straggler_prob);
    if (starts)
        obs::count("fault.stragglers");
    return starts;
}

bool
FaultInjector::checkpoint_write_fails(JobId job, Time now)
{
    for (auto it = armed_ckpt_.begin(); it != armed_ckpt_.end(); ++it) {
        if (it->time > now)
            break;  // armed entries are time-sorted
        if (it->target < 0 || it->target == job) {
            armed_ckpt_.erase(it);
            obs::count("fault.ckpt_failures");
            return true;
        }
    }
    if (config_.ckpt_failure_prob <= 0.0)
        return false;
    bool fails = ckpt_rng_.flip(config_.ckpt_failure_prob);
    if (fails)
        obs::count("fault.ckpt_failures");
    return fails;
}

int
FaultInjector::take_scripted_rpc_drops(JobId job, Time now)
{
    int forced = 0;
    for (auto it = armed_rpc_.begin(); it != armed_rpc_.end();) {
        if (it->time > now)
            break;  // armed entries are time-sorted
        if (it->target < 0 || it->target == job) {
            forced += std::max(
                1, static_cast<int>(std::lround(it->magnitude)));
            it = armed_rpc_.erase(it);
        } else {
            ++it;
        }
    }
    return forced;
}

bool
FaultInjector::sched_crash_fires()
{
    if (config_.sched_crash_prob <= 0.0)
        return false;
    bool fires = sched_rng_.flip(config_.sched_crash_prob);
    if (fires)
        obs::count("fault.sched_crashes");
    return fires;
}

std::string
FaultScriptError::to_string() const
{
    if (line <= 0)
        return message;
    return "fault script line " + std::to_string(line) + ": " + message;
}

std::optional<FaultScriptError>
parse_fault_script(const std::string &text, std::vector<FaultEvent> *out)
{
    CsvTable table = parse_csv(text);
    for (const char *column : {"time", "type", "target"}) {
        if (table.column_index(column) < 0) {
            return FaultScriptError{
                1, std::string("missing column '") + column +
                       "' (fault scripts need columns time,type,target)"};
        }
    }
    const bool has_duration = table.column_index("duration") >= 0;
    const bool has_magnitude = table.column_index("magnitude") >= 0;
    std::vector<FaultEvent> script;
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
        // Header is line 1, so data row r lives on line r + 2.
        const int line = static_cast<int>(r) + 2;
        const auto bad = [line](const std::string &why) {
            return FaultScriptError{line, why};
        };
        if (table.rows[r].size() != table.header.size()) {
            return bad("expected " + std::to_string(table.header.size()) +
                       " fields, got " +
                       std::to_string(table.rows[r].size()));
        }
        const auto number = [&](const char *column, auto *value,
                                bool non_negative)
            -> std::optional<FaultScriptError> {
            const std::string &cell = table.cell(r, column);
            if (!parse_number(cell, value) ||
                std::isnan(static_cast<double>(*value))) {
                return bad("column '" + std::string(column) + "': '" +
                           cell + "' is not a number");
            }
            if (non_negative && *value < 0)
                return bad("negative " + std::string(column));
            return std::nullopt;
        };
        FaultEvent ev;
        if (auto error = number("time", &ev.time, true))
            return error;
        const std::string &type = table.cell(r, "type");
        const std::optional<FaultType> parsed = fault_type_from_name(type);
        if (!parsed.has_value())
            return bad("unknown fault type '" + type + "'");
        ev.type = *parsed;
        if (auto error = number("target", &ev.target, false))
            return error;
        if (has_duration) {
            if (auto error = number("duration", &ev.duration_s, true))
                return error;
        }
        if (has_magnitude) {
            if (auto error = number("magnitude", &ev.magnitude, true))
                return error;
        }
        script.push_back(ev);
    }
    *out = std::move(script);
    return std::nullopt;
}

std::optional<FaultScriptError>
load_fault_script(const std::string &path, std::vector<FaultEvent> *out)
{
    // ef-lint: allow(file-io: read-only script input, not durable state)
    std::ifstream in(path);
    if (!in)
        return FaultScriptError{0, "cannot open fault script: " + path};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse_fault_script(buffer.str(), out);
}

std::optional<FaultScriptError>
check_fault_targets(const std::vector<FaultEvent> &script,
                    std::int64_t servers, std::int64_t gpus,
                    std::vector<JobId> jobs)
{
    std::sort(jobs.begin(), jobs.end());
    for (std::size_t k = 0; k < script.size(); ++k) {
        const FaultEvent &ev = script[k];
        const auto out_of = [&](std::int64_t count, const char *what) {
            return FaultScriptError{
                static_cast<int>(k) + 2,
                fault_type_name(ev.type) + " target " +
                    std::to_string(ev.target) + " is not one of the " +
                    std::to_string(count) + " " + what};
        };
        if (ev.type == FaultType::kServerCrash &&
            (ev.target < 0 || ev.target >= servers))
            return out_of(servers, "servers");
        if (ev.type == FaultType::kGpuFault &&
            (ev.target < 0 || ev.target >= gpus))
            return out_of(gpus, "GPUs");
        if (ev.type == FaultType::kStraggler &&
            !std::binary_search(jobs.begin(), jobs.end(), ev.target))
            return out_of(static_cast<std::int64_t>(jobs.size()),
                          "trace jobs");
    }
    return std::nullopt;
}

}  // namespace ef
