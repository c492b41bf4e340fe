#include "sched/planning_util.h"

#include <algorithm>

#include "common/check.h"
#include "common/logging.h"

namespace ef {

double
PlanningMargin::inflate(double remaining, const ScalingCurve &curve) const
{
    return remaining * (1.0 + relative) +
           curve.throughput(curve.max_useful()) * overhead_allowance_s;
}

PlanningJob
to_planning_job(const ClusterView &view, JobId id,
                const PlanningMargin &margin)
{
    const JobSpec &spec = view.spec(id);
    PlanningJob job;
    job.id = id;
    job.curve = view.curve(id);
    job.remaining_iterations =
        margin.inflate(view.remaining_iterations(id), job.curve);
    job.deadline = spec.deadline;
    job.soft = spec.has_soft_deadline();
    return job;
}

PlanningJob
to_fixed_planning_job(const ClusterView &view, JobId id,
                      const PlanningMargin &margin)
{
    PlanningJob job = to_planning_job(view, id, margin);
    job.curve = restrict_to_fixed_size(job.curve,
                                       view.spec(id).requested_gpus);
    return job;
}

PlannerConfig
planner_config_for(const ClusterView &view, Time slot_seconds,
                   FillDirection direction)
{
    PlannerConfig config;
    config.total_gpus = view.total_gpus();
    config.slot_seconds = slot_seconds;
    config.direction = direction;
    return config;
}

bool
admission_feasible(const ClusterView &view, const PlannerConfig &config,
                   const PlanningMargin &margin, const JobSpec &candidate,
                   bool fixed_size, const std::set<JobId> *exclude)
{
    EF_CHECK(!candidate.is_best_effort());
    std::vector<PlanningJob> jobs;
    for (JobId id : view.active_jobs()) {
        const JobSpec &spec = view.spec(id);
        // Best-effort, soft-deadline, and demoted jobs never reserve
        // capacity against a hard admission (§4.4).
        if (spec.is_best_effort() || spec.has_soft_deadline() ||
            (exclude != nullptr && exclude->count(id) > 0))
            continue;
        if (view.remaining_iterations(id) <= 0.0)
            continue;
        jobs.push_back(fixed_size ? to_fixed_planning_job(view, id, margin)
                                  : to_planning_job(view, id, margin));
    }
    PlanningJob cand;
    cand.id = candidate.id;
    cand.curve = view.curve_for(candidate);
    if (fixed_size) {
        cand.curve =
            restrict_to_fixed_size(cand.curve, candidate.requested_gpus);
    }
    cand.remaining_iterations = margin.inflate(
        static_cast<double>(candidate.iterations), cand.curve);
    cand.deadline = candidate.deadline;
    jobs.push_back(std::move(cand));
    return run_admission(config, view.now(), std::move(jobs)).feasible;
}

bool
edf_admission_feasible(const ClusterView &view,
                       const PlannerConfig &config,
                       const JobSpec &candidate)
{
    EF_CHECK(!candidate.is_best_effort());
    std::vector<PlanningJob> jobs;
    for (JobId id : view.active_jobs()) {
        const JobSpec &spec = view.spec(id);
        if (spec.is_best_effort())
            continue;
        if (view.remaining_iterations(id) <= 0.0)
            continue;
        jobs.push_back(to_planning_job(view, id, {}));
    }
    PlanningJob cand;
    cand.id = candidate.id;
    cand.curve = view.curve_for(candidate);
    cand.remaining_iterations = static_cast<double>(candidate.iterations);
    cand.deadline = candidate.deadline;
    jobs.push_back(std::move(cand));

    std::stable_sort(jobs.begin(), jobs.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         if (a.deadline != b.deadline)
                             return a.deadline < b.deadline;
                         return a.id < b.id;
                     });
    const Time now = view.now();
    int horizon = 1;
    for (const PlanningJob &job : jobs) {
        horizon = std::max(horizon,
                           plan_horizon(now, job.deadline,
                                        config.slot_seconds,
                                        config.max_slots).slots);
    }
    std::vector<GpuCount> available(static_cast<std::size_t>(horizon),
                                    config.total_gpus);
    for (const PlanningJob &job : jobs) {
        PlanHorizon d = plan_horizon(now, job.deadline,
                                     config.slot_seconds,
                                     config.max_slots);
        // EDF greed: grab every useful GPU in every slot until done.
        double remaining = job.remaining_iterations;
        bool satisfied = false;
        for (int t = 0; t < d.slots && !satisfied; ++t) {
            GpuCount x = job.curve.usable(
                available[static_cast<std::size_t>(t)]);
            double capacity = (t == d.slots - 1)
                                  ? config.slot_seconds * d.last_weight
                                  : config.slot_seconds;
            remaining -= job.curve.throughput(x) * capacity;
            available[static_cast<std::size_t>(t)] -= x;
            satisfied = remaining <= 1e-7;
        }
        if (!satisfied)
            return false;
    }
    return true;
}

MinShareRefresh
refresh_min_shares(const PlannerConfig &config, Time now,
                   std::vector<PlanningJob> slo, int *replan_failures,
                   bool park_infeasible_hard, std::uint64_t *cost)
{
    // Minimum satisfactory shares in deadline order (Algorithm 1):
    // hard jobs first — soft-deadline jobs only reserve what hard jobs
    // left over (§4.4) — with deadline relaxation for hard jobs that
    // drifted infeasible so they keep running.
    std::stable_sort(slo.begin(), slo.end(),
                     [](const PlanningJob &a, const PlanningJob &b) {
                         if (a.soft != b.soft)
                             return !a.soft;
                         if (a.deadline != b.deadline)
                             return a.deadline < b.deadline;
                         return a.id < b.id;
                     });
    MinShareRefresh refresh;
    ShareLedger &ledger = refresh.ledger;
    for (PlanningJob &job : slo) {
        PlanHorizon d = plan_horizon(now, job.deadline,
                                     config.slot_seconds, config.max_slots);
        if (ledger.reserve(std::move(job), d, config, cost))
            continue;
        if (job.soft || park_infeasible_hard) {
            // A soft deadline that cannot be met is not an incident:
            // the job simply continues as best-effort (§4.4). Under
            // the post-fault demotion rule, a hard SLO the shrunken
            // cluster can no longer satisfy is parked for the caller
            // to demote, not silently relaxed past its guarantee.
            job.deadline = kTimeInfinity;
            refresh.parked.push_back(std::move(job));
            continue;
        }
        // Relax a slipped deadline in small steps so the job still
        // finishes as close to its original deadline as the cluster
        // allows, rather than gliding to a distant one.
        if (replan_failures != nullptr) {
            ++*replan_failures;
            EF_DEBUG("job " << job.id
                            << " cannot meet its deadline; relaxing");
        }
        Time extension = config.slot_seconds;
        bool reserved = false;
        for (int tries = 0;
             !reserved && tries < 24 && !is_unbounded(job.deadline);
             ++tries) {
            job.deadline += extension;
            extension *= 1.6;
            d = plan_horizon(now, job.deadline, config.slot_seconds,
                             config.max_slots);
            reserved = ledger.reserve(std::move(job), d, config, cost);
        }
        if (!reserved) {
            job.deadline = kTimeInfinity;  // park as best-effort-like
            refresh.parked.push_back(std::move(job));
        }
    }
    return refresh;
}

SchedulerDecision
elastic_allocate(const ClusterView &view, const PlannerConfig &base_config,
                 const PlanningMargin &margin, bool fixed_size,
                 int *replan_failures, const std::set<JobId> *demoted,
                 std::vector<JobId> *hard_parked)
{
    PlannerConfig config = base_config;
    const Time now = view.now();

    if (config.total_gpus <= 0) {
        // Total outage: every server is down, so there is nothing to
        // plan — suspend everyone. Deadlines are re-evaluated (and
        // unmeetable jobs parked/demoted) once capacity returns.
        return SchedulerDecision{};
    }

    std::vector<PlanningJob> slo;
    std::vector<PlanningJob> best_effort;
    for (JobId id : view.active_jobs()) {
        if (view.remaining_iterations(id) <= 0.0)
            continue;
        if (view.spec(id).is_best_effort()) {
            // Best-effort jobs never carry the margin (no guarantee to
            // protect).
            best_effort.push_back(fixed_size
                                      ? to_fixed_planning_job(view, id, {})
                                      : to_planning_job(view, id, {}));
        } else {
            slo.push_back(fixed_size
                              ? to_fixed_planning_job(view, id, margin)
                              : to_planning_job(view, id, margin));
        }
    }

    if (demoted != nullptr && !demoted->empty()) {
        // Previously demoted jobs plan as best-effort: they keep
        // running on leftovers but no longer reserve SLO capacity.
        auto keep = slo.begin();
        for (auto it = slo.begin(); it != slo.end(); ++it) {
            if (demoted->count(it->id) > 0) {
                it->deadline = kTimeInfinity;
                best_effort.push_back(std::move(*it));
            } else {
                if (keep != it)
                    *keep = std::move(*it);
                ++keep;
            }
        }
        slo.erase(keep, slo.end());
    }

    // Failure-aware callers (hard_parked given) switch from
    // relax-and-retry to the demotion rule once a fault has shrunk
    // the cluster: an unmeetable hard SLO is parked for demotion.
    const bool park_hard =
        hard_parked != nullptr && view.fault_epoch() > 0;
    MinShareRefresh refresh = refresh_min_shares(
        config, now, std::move(slo), replan_failures, park_hard);
    // Jobs parked with an infinite deadline move to the best-effort
    // queue so Algorithm 2 can still feed them leftovers.
    for (PlanningJob &job : refresh.parked) {
        if (!job.soft && hard_parked != nullptr)
            hard_parked->push_back(job.id);
        best_effort.push_back(std::move(job));
    }

    AllocationOutcome outcome =
        run_allocation(config, now, refresh.ledger, best_effort);
    // Set in id order, so each set() appends.
    const std::vector<PlanningJob> &slo_rows = refresh.ledger.jobs;
    std::vector<SchedulerDecision::Entry> rows;
    rows.reserve(slo_rows.size() + best_effort.size());
    for (std::size_t i = 0; i < slo_rows.size(); ++i)
        rows.emplace_back(slo_rows[i].id, outcome.slo_gpus[i]);
    for (std::size_t j = 0; j < best_effort.size(); ++j)
        rows.emplace_back(best_effort[j].id, outcome.best_effort_gpus[j]);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    SchedulerDecision decision;
    for (const auto &[id, g] : rows)
        decision.set(id, g);
    return decision;
}

}  // namespace ef
