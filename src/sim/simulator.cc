#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "cluster/fragmentation.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/fields.h"

namespace ef {
namespace {

constexpr double kIterEpsilon = 1e-6;

// Histogram bucket edges for the run-level obs metrics. Chosen once
// here so every run's dump is comparable.
const std::vector<double> kQueueDepthEdges = {0,  1,  2,   4,  8,
                                              16, 32, 64, 128, 256};
const std::vector<double> kFragmentationEdges = {0.0, 0.05, 0.1, 0.2,
                                                 0.4, 0.6,  0.8};
const std::vector<double> kSpanExcessEdges = {0, 1, 2, 4, 8, 16, 32};
const std::vector<double> kReplanIntervalEdges = {
    1.0, 10.0, 60.0, 300.0, 600.0, 1800.0, 3600.0, 7200.0};
const std::vector<double> kResizeEdges = {0, 1, 2, 4, 8, 16, 32, 64};
const std::vector<double> kEfficiencyEdges = {0.1, 0.25, 0.5, 0.75,
                                              0.9, 1.0};
const std::vector<double> kReplayEdges = {0,  1,  2,   4,   8,   16,
                                          32, 64, 128, 256, 512, 1024};

/** ids payload of an alloc-change event, from concrete GPU ids. */
std::vector<std::int64_t>
trace_ids(const std::vector<GpuCount> &gpus)
{
    return std::vector<std::int64_t>(gpus.begin(), gpus.end());
}

}  // namespace

/** Runtime record of one job. */
struct Simulator::JobRt
{
    JobId id = kInvalidJob;
    /** What the trace and the config fix for the job — its trace row,
     *  its shape's shared curve, its noise factor — set by bind() at
     *  construction and after a decode, never journaled. */
    const JobSpec *spec = nullptr;
    ScalingCurve curve;
    double noise_factor = 1.0;      ///< executor-vs-profile mismatch
    bool arrived = false;
    JobState state = JobState::kWaiting;

    double executed = 0.0;          ///< iterations completed
    Time last_update = 0.0;         ///< progress accounted up to here
    Time progress_resume = 0.0;     ///< paused (overhead) until here
    double attained_gpu_seconds = 0.0;

    GpuCount gpus = 0;              ///< currently held GPUs
    double current_tpt = 0.0;       ///< iterations/sec on the placement
    double checkpoint_iters = 0.0;  ///< progress safe from failures

    double straggler_factor = 1.0;  ///< >1 while a worker straggles
    Time straggler_until = -kTimeInfinity;

    /** The report row; run() adds the spec and the attained service. */
    JobTally outcome;

    double remaining() const
    {
        return std::max(0.0, static_cast<double>(spec->iterations) -
                                 executed);
    }
    bool active() const
    {
        return arrived && (state == JobState::kWaiting ||
                           state == JobState::kRunning);
    }

    /**
     * Persistent state. The tally is journaled but not hashed, so a
     * recovered run reports the same jobs.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(id, state, arrived, executed, attained_gpu_seconds,
          last_update, progress_resume, checkpoint_iters, current_tpt,
          straggler_factor, straggler_until, gpus);
        v.journal(outcome.admitted, outcome.finished, outcome.finish_time,
                  outcome.first_run_time, outcome.scaling_events,
                  outcome.migrations, outcome.failures_suffered,
                  outcome.demoted);
    }
};

/** Queue entry; min-heap by (time, seq). */
struct Simulator::Event
{
    enum Kind {
        kArrival,
        kCompletion,
        kTick,
        kServerDown,
        kServerUp,
        kGpuDown,
        kGpuUp,
        kStragglerStart,
        kStragglerEnd,
    };
    friend constexpr Kind enum_last(Kind) { return kStragglerEnd; }

    Time time = 0.0;
    std::uint64_t seq = 0;
    Kind kind = kArrival;
    /** Job id, or server index / GPU id for failure events. */
    JobId job = kInvalidJob;
    Time dur = 0.0;           ///< repair / straggle window (fault events)
    double mag = 0.0;         ///< straggler slowdown factor
    /** Scripted faults never reschedule the rate-based stream. */
    bool from_script = false;

    /** Pending futures, not history: journaled, never hashed — they
     *  are pinned by (now_, next_seq_) and the committed state that
     *  scheduled them. A NaN time would break the heap's ordering. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(time, seq, kind, job, dur, mag, from_script);
        v.after_decode([this] { return !std::isnan(time); });
    }
};

/** The simulator's persistent state; its hash order is pinned by
 *  test_state_hash. */
template <class V>
void
Simulator::fields(V &v)
{
    v(now_, next_seq_, fault_epoch_);
    // Jobs not yet arrived, dropped or finished never change again:
    // they hash as one sealed sum, and each sample walks only the
    // active jobs, in submission order (DESIGN.md §7).
    v.split(jobs_, [](const JobRt &job) { return job.active(); }, active_);
    v.after_decode([this] {
        // The table is the trace's, slot for slot. A base decodes its
        // rows afresh, so each is bound to its trace row again.
        if (jobs_.size() != trace_.jobs.size())
            return false;
        arrived_ = 0;
        admitted_ = 0;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            JobRt &job = jobs_[i];
            if (job.id != trace_.jobs[i].id)
                return false;
            bind(job, trace_.jobs[i]);
            arrived_ += job.arrived ? 1 : 0;
            admitted_ += job.outcome.admitted ? 1 : 0;
        }
        return true;
    });
    // Concrete allocations, not just counts: placement choices feed
    // topology-dependent throughput, so they are part of the contract.
    v(placement_);
    v.after_decode([this] {
        // Every placed GPU belongs to an active job, and each job holds
        // exactly its gpus count.
        std::size_t placed = 0;
        for (const JobRt &job : jobs_) {
            const GpuCount held = placement_.is_placed(job.id)
                                      ? placement_.size_of(job.id)
                                      : 0;
            if (held != job.gpus || (held > 0 && !job.active()))
                return false;
            placed += held > 0 ? 1 : 0;
        }
        return placed == placement_.placed_jobs().size();
    });
    v.digest(fault_);

    v.journal(tick_armed_, replan_pending_, view_dirty_,
              last_decision_time_, sched_crash_cursor_, events_, result_);
    v.after_decode([this] {
        std::make_heap(events_.begin(), events_.end(), event_after);
        return true;
    });
    v.opaque(
        [this](std::string *blob) {
            scheduler_->encode_recovery_state(blob);
        },
        [this](const std::string &blob) {
            return scheduler_->decode_recovery_state(blob);
        });
}

bool
Simulator::event_after(const Event &a, const Event &b)
{
    if (a.time != b.time)
        return a.time > b.time;
    return a.seq > b.seq;
}

void
Simulator::push_event(const Event &event)
{
    events_.push_back(event);
    std::push_heap(events_.begin(), events_.end(), event_after);
}

Simulator::Simulator(const Trace &trace, Scheduler *scheduler,
                     SimConfig config)
    : trace_(trace),
      scheduler_(scheduler),
      config_(config),
      topology_(trace.topology),
      perf_(&topology_),
      placement_(&topology_),
      overhead_(config.overhead)
{
    EF_CHECK(scheduler_ != nullptr);
    scheduler_->bind(this);

    result_.scheduler_name = scheduler_->name();
    result_.trace_name = trace_.name;
    result_.total_gpus = topology_.total_gpus();

    // One curve per job shape: every job of a (model, batch) shares it.
    for (const JobSpec &spec : trace_.jobs) {
        const auto key = std::make_pair(spec.model, spec.global_batch);
        if (curves_.find(key) == curves_.end())
            curves_.emplace(key, build_curve(spec));
    }
    jobs_.reserve(trace_.jobs.size());
    slot_of_id_.reserve(trace_.jobs.size());
    for (const JobSpec &spec : trace_.jobs) {
        slot_of_id_.emplace_back(spec.id,
                                 static_cast<std::uint32_t>(jobs_.size()));
        JobRt &job = jobs_.emplace_back();
        job.id = spec.id;
        bind(job, spec);
    }
    desired_by_slot_.assign(jobs_.size(), 0);
    std::sort(slot_of_id_.begin(), slot_of_id_.end());
    const auto dup = std::adjacent_find(
        slot_of_id_.begin(), slot_of_id_.end(),
        [](const auto &a, const auto &b) { return a.first == b.first; });
    EF_FATAL_IF(dup != slot_of_id_.end(),
                "duplicate job id " << dup->first << " in trace");
    if (config_.faults.any())
        fault_ = std::make_unique<FaultInjector>(config_.faults);
}

Simulator::~Simulator() = default;

double
noise_factor(const NoiseConfig &noise, JobId id)
{
    if (noise.throughput_error <= 0.0)
        return 1.0;
    Rng noise_rng(0x9e3779b9u ^
                  static_cast<std::uint64_t>(id) * 2654435761u);
    return 1.0 + noise_rng.uniform_real(-noise.throughput_error,
                                        noise.throughput_error);
}

void
Simulator::bind(JobRt &job, const JobSpec &spec) const
{
    job.spec = &spec;
    job.curve = curve_for(spec);
    job.noise_factor = noise_factor(config_.noise, spec.id);
}

const Simulator::JobRt *
Simulator::find(JobId id) const
{
    if (slot_of_id_.empty())
        return nullptr;
    // Probe where a dense id range puts @p id first — exact for traces
    // numbered consecutively, the common case — then binary search.
    const auto probe = static_cast<std::uint64_t>(id) -
                       static_cast<std::uint64_t>(slot_of_id_.front().first);
    if (probe < slot_of_id_.size() && slot_of_id_[probe].first == id)
        return &jobs_[slot_of_id_[probe].second];
    const auto at = std::lower_bound(
        slot_of_id_.begin(), slot_of_id_.end(), id,
        [](const auto &entry, JobId key) { return entry.first < key; });
    if (at == slot_of_id_.end() || at->first != id)
        return nullptr;
    return &jobs_[at->second];
}

const Simulator::JobRt &
Simulator::rt(JobId id) const
{
    const JobRt *job = find(id);
    EF_CHECK_MSG(job != nullptr, "unknown job " << id);
    return *job;
}

Simulator::JobRt &
Simulator::rt(JobId id)
{
    return const_cast<JobRt &>(std::as_const(*this).rt(id));
}

std::size_t
Simulator::slot_of(const JobRt &job) const
{
    return static_cast<std::size_t>(&job - jobs_.data());
}

GpuCount
Simulator::total_gpus() const
{
    // Schedulers see the capacity that is actually up (§4.4).
    return placement_.available_gpus();
}

std::vector<JobId>
Simulator::active_jobs() const
{
    std::vector<JobId> active;
    active.reserve(active_.live.size());
    for (std::uint32_t slot : active_.live)
        active.push_back(jobs_[slot].id);
    return active;
}

const JobSpec &
Simulator::spec(JobId job) const
{
    return *rt(job).spec;
}

const ScalingCurve &
Simulator::curve(JobId job) const
{
    return rt(job).curve;
}

ScalingCurve
Simulator::curve_for(const JobSpec &spec) const
{
    const auto it =
        curves_.find(std::make_pair(spec.model, spec.global_batch));
    return it != curves_.end() ? it->second : build_curve(spec);
}

ScalingCurve
Simulator::build_curve(const JobSpec &spec) const
{
    std::vector<double> table = perf_.compact_pow2_throughputs(
        spec.model, spec.global_batch, topology_.total_gpus());
    return ScalingCurve::from_pow2_table(std::move(table));
}

double
Simulator::remaining_iterations(JobId job) const
{
    return rt(job).remaining();
}

GpuCount
Simulator::current_gpus(JobId job) const
{
    return rt(job).gpus;
}

double
Simulator::attained_gpu_seconds(JobId job) const
{
    return rt(job).attained_gpu_seconds;
}

void
Simulator::advance_progress(Time to)
{
    EF_CHECK(to >= now_);
    // Only placed jobs accrue anything. An unplaced job's clock stays
    // where it stopped, and restarts at now_ when it gains GPUs
    // (apply_resize).
    for (std::uint32_t slot : active_.live) {
        JobRt &job = jobs_[slot];
        if (job.gpus <= 0)
            continue;
        Time t0 = job.last_update;
        if (to <= t0) {
            continue;
        }
        job.attained_gpu_seconds +=
            static_cast<double>(job.gpus) * (to - t0);
        if (job.state == JobState::kRunning) {
            Time start = std::max(t0, job.progress_resume);
            if (to > start) {
                job.executed += job.current_tpt * (to - start);
                job.executed = std::min(
                    job.executed,
                    static_cast<double>(job.spec->iterations));
                // Periodic auto-checkpointing: progress older than one
                // checkpoint interval is safe from node failures.
                double interval_iters =
                    job.current_tpt *
                    config_.faults.checkpoint_interval_s;
                if (job.executed - job.checkpoint_iters >
                    interval_iters) {
                    job.checkpoint_iters = job.executed - interval_iters;
                }
            }
        }
        job.last_update = to;
    }
}

void
Simulator::charge_pause(JobRt &job, Time seconds)
{
    if (seconds <= 0.0)
        return;
    job.progress_resume =
        std::max(job.progress_resume, now_ + seconds);
}

void
Simulator::refresh_throughput(JobRt &job)
{
    if (job.gpus <= 0 || job.state != JobState::kRunning) {
        job.current_tpt = 0.0;
        return;
    }
    PlacementShape shape =
        perf_.shape_of(placement_.gpus_of(job.id));
    job.current_tpt =
        perf_.throughput(job.spec->model, job.spec->global_batch, shape) *
        job.noise_factor;
    // A straggling worker gates the whole data-parallel group.
    if (now_ < job.straggler_until)
        job.current_tpt /= job.straggler_factor;
    EF_CHECK_MSG(job.current_tpt > 0.0,
                 "job " << job.id << " placed on an infeasible "
                        << job.gpus << "-GPU configuration");
    schedule_completion(job);
}

void
Simulator::schedule_completion(JobRt &job)
{
    if (job.state != JobState::kRunning || job.current_tpt <= 0.0)
        return;
    Time start = std::max(now_, job.progress_resume);
    Time done = start + job.remaining() / job.current_tpt;
    push_event(Event{done, next_seq_++, Event::kCompletion,
                       job.id});
}

bool
Simulator::deliver_resize(JobId id, Time *penalty)
{
    if (fault_ == nullptr)
        return true;
    // The simulator's control path is synchronous, so delivery
    // collapses to: how many attempts were lost, and did we give up?
    int forced = fault_->take_scripted_rpc_drops(id, now_);
    int attempt = 0;
    for (;;) {
        bool lost = forced > 0 || fault_->rpc_attempt_lost();
        if (forced > 0)
            --forced;
        if (!lost)
            break;
        ++attempt;
        if (attempt > fault_->config().rpc_max_retries) {
            ++result_.rpc_gave_up;
            obs::emit({now_, obs::EventKind::kRpcGiveUp, id, attempt});
            obs::count("sim.rpc.gave_up");
            EF_INFO("command for job "
                    << id << " lost after "
                    << fault_->config().rpc_max_retries
                    << " retries; allocation unchanged");
            return false;
        }
        ++result_.rpc_retries;
        obs::emit({now_, obs::EventKind::kRpcRetry, id, attempt});
        obs::count("sim.rpc.retries");
        *penalty += fault_->rpc_backoff(attempt);
    }
    *penalty += fault_->rpc_delay();
    return true;
}

void
Simulator::apply_resize(JobRt &job, GpuCount desired)
{
    const JobId id = job.id;
    const GpuCount old = job.gpus;
    if (desired == old)
        return;

    // Unreliable control plane: the resize command can be lost. A
    // given-up command leaves the previous allocation in force until
    // a later replan reconciles; retries charge backoff latency to
    // the job below.
    Time rpc_penalty = 0.0;
    if (!deliver_resize(id, &rpc_penalty))
        return;

    if (desired == 0) {
        placement_.release(id);
        job.gpus = 0;
        job.current_tpt = 0.0;
        job.state = JobState::kWaiting;
        ++job.outcome.scaling_events;
        result_.allocation_log.push_back(
            AllocationEvent{now_, id, {}});
        if (obs::tracing()) {
            obs::emit({now_, obs::EventKind::kScale, id, old, 0});
            obs::emit({now_, obs::EventKind::kAllocChange, id, old});
        }
        return;
    }

    PlacementResult res;
    if (old == 0) {
        res = placement_.place(id, desired,
                               scheduler_->placement_strategy(),
                               scheduler_->allow_migration());
    } else {
        res = placement_.resize(id, desired,
                                scheduler_->placement_strategy(),
                                scheduler_->allow_migration());
    }
    if (!res.ok) {
        ++result_.placement_failures;
        obs::emit({now_, obs::EventKind::kPlacementFail, id, desired});
        EF_DEBUG("placement failed for job " << id << " (" << desired
                                             << " GPUs)");
        return;  // keep the previous allocation
    }

    // Repack relocations pause their victims too.
    for (const Migration &m : res.migrations) {
        if (m.job == id)
            continue;
        JobRt &other = rt(m.job);
        ++other.outcome.migrations;
        charge_pause(other, overhead_.migration_seconds(
                                other.spec->model, other.gpus));
        if (other.state == JobState::kRunning)
            refresh_throughput(other);
        result_.allocation_log.push_back(
            AllocationEvent{now_, m.job, m.to});
        if (obs::tracing()) {
            obs::TraceEvent moved{now_, obs::EventKind::kAllocChange,
                                  m.job, other.gpus};
            moved.ids = trace_ids(m.to);
            obs::emit(moved);
            obs::TraceEvent mig{now_, obs::EventKind::kMigration,
                                m.job, other.gpus};
            mig.ids = trace_ids(m.to);
            obs::emit(mig);
        }
        obs::count("sim.migrations");
    }

    job.gpus = desired;
    job.state = JobState::kRunning;
    if (old == 0)
        job.last_update = now_;  // progress accrues from here on
    ++job.outcome.scaling_events;
    // Scaling checkpoints state — unless the checkpoint write itself
    // fails, in which case the previous checkpoint stays the restore
    // point and progress since then remains at risk.
    bool ckpt_ok = true;
    if (fault_ != nullptr && fault_->checkpoint_write_fails(id, now_)) {
        ++result_.ckpt_failures;
        ckpt_ok = false;
    } else {
        job.checkpoint_iters = job.executed;
    }
    result_.allocation_log.push_back(
        AllocationEvent{now_, id, placement_.gpus_of(id)});
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kScale, id, old, desired});
        obs::emit({now_, obs::EventKind::kCheckpoint, id,
                   ckpt_ok ? 1 : 0});
        obs::TraceEvent alloc{now_, obs::EventKind::kAllocChange, id,
                              old};
        alloc.ids = trace_ids(placement_.gpus_of(id));
        obs::emit(alloc);
    }
    obs::count("sim.scalings");
    if (is_unbounded(job.outcome.first_run_time))
        job.outcome.first_run_time = now_;
    charge_pause(job, overhead_.scaling_seconds(job.spec->model, old,
                                                desired) +
                          rpc_penalty);
    if (fault_ != nullptr && fault_->straggler_starts()) {
        // The rebuilt worker group came up with a straggler.
        job.straggler_factor = fault_->straggler_slowdown();
        job.straggler_until = now_ + fault_->straggler_duration_s();
        ++result_.stragglers_observed;
        if (obs::tracing()) {
            obs::TraceEvent straggle{
                now_, obs::EventKind::kStragglerStart, id};
            straggle.x = job.straggler_factor;
            obs::emit(straggle);
        }
        obs::count("sim.stragglers");
        push_event(Event{job.straggler_until, next_seq_++,
                           Event::kStragglerEnd, id});
    }
    refresh_throughput(job);
}

void
Simulator::apply_decision(const SchedulerDecision &decision)
{
    // One pass over the decision: check it and spread the live jobs'
    // counts into their slots. Entries for jobs that are not live, or
    // not in the trace, are ignored; the walk below reads and resets
    // every slot written here.
    GpuCount desired_total = 0;
    for (const auto &[id, g] : decision.entries()) {
        EF_CHECK_MSG(g >= 0, "negative allocation for job " << id);
        desired_total += g;
        const JobRt *job = find(id);
        if (job != nullptr && job->active())
            desired_by_slot_[slot_of(*job)] = g;
    }
    EF_CHECK_MSG(desired_total <= topology_.total_gpus(),
                 scheduler_->name() << " requested " << desired_total
                                    << " GPUs on a "
                                    << topology_.total_gpus()
                                    << "-GPU cluster");

    // Shrinks and suspensions first to free capacity, then growths
    // (largest first so compact placements are found while space is
    // contiguous; ties in slot order). Resizing never changes the
    // active set.
    grows_.clear();
    for (std::uint32_t slot : active_.live) {
        JobRt &job = jobs_[slot];
        const GpuCount desired = std::exchange(desired_by_slot_[slot], 0);
        if (desired < job.gpus)
            apply_resize(job, desired);
        else if (desired > job.gpus)
            grows_.emplace_back(desired, slot);
    }
    std::stable_sort(grows_.begin(), grows_.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    for (const auto &[desired, slot] : grows_)
        apply_resize(jobs_[slot], desired);
}

void
Simulator::record_timelines()
{
    result_.used_gpus.record(now_, placement_.used_gpus());
    record_fragmentation();
    shares_.clear();
    for (std::uint32_t slot : active_.live) {
        const JobRt &job = jobs_[slot];
        if (job.state != JobState::kRunning || job.gpus <= 0)
            continue;
        GpuCount base = job.curve.min_workers();
        double per_gpu_base =
            job.curve.throughput(base) / static_cast<double>(base);
        // Eq. 8: each of the job's GPUs contributes its per-GPU
        // throughput relative to the 1-GPU rate; summed over the job
        // that is simply T_actual(g) / T(1).
        shares_.emplace_back(job.id, job.current_tpt / per_gpu_base);
    }
    // Summed in ascending job id, the order the Fig. 10 series has
    // always used: floating-point addition is order-sensitive.
    std::sort(shares_.begin(), shares_.end());
    double ce = 0.0;
    for (const auto &[id, share] : shares_)
        ce += share;
    const double efficiency =
        ce / static_cast<double>(topology_.total_gpus());
    result_.cluster_efficiency.record(now_, efficiency);
    if (obs::metrics() != nullptr) {
        obs::gauge_set("sim.cluster_efficiency_last", efficiency);
        obs::observe("sim.cluster_efficiency", kEfficiencyEdges,
                     efficiency);
        obs::gauge_set("sim.used_gpus_last",
                       static_cast<double>(placement_.used_gpus()));
    }
}

bool
Simulator::any_nonterminal_jobs() const
{
    return !active_.live.empty();
}

void
Simulator::arm_tick()
{
    Time interval = scheduler_->reschedule_interval();
    if (interval <= 0.0 || tick_armed_)
        return;
    if (!any_nonterminal_jobs())
        return;
    push_event(Event{now_ + interval, next_seq_++, Event::kTick,
                       kInvalidJob});
    tick_armed_ = true;
}

void
Simulator::schedule_next_failure(int server)
{
    if (fault_ == nullptr || !fault_->server_crashes_enabled())
        return;
    Time delay = fault_->server_crash_delay();
    push_event(Event{now_ + delay, next_seq_++, Event::kServerDown,
                       static_cast<JobId>(server)});
}

void
Simulator::schedule_next_gpu_fault()
{
    if (fault_ == nullptr || !fault_->gpu_faults_enabled())
        return;
    Time delay = fault_->gpu_fault_delay(topology_.total_gpus());
    GpuCount target = fault_->gpu_fault_target(topology_.total_gpus());
    push_event(Event{now_ + delay, next_seq_++, Event::kGpuDown,
                       static_cast<JobId>(target),
                       fault_->gpu_repair_s()});
}

void
Simulator::queue_scripted_faults()
{
    if (fault_ == nullptr)
        return;
    for (const FaultEvent &ev : fault_->queueable_script_events()) {
        Event event;
        event.time = ev.time;
        event.seq = next_seq_++;
        event.job = static_cast<JobId>(ev.target);
        event.from_script = true;
        switch (ev.type) {
          case FaultType::kServerCrash:
            EF_FATAL_IF(ev.target < 0 ||
                            ev.target >= topology_.num_servers(),
                        "scripted server-crash target " << ev.target
                            << " out of range");
            event.kind = Event::kServerDown;
            event.dur = ev.duration_s > 0.0 ? ev.duration_s
                                            : fault_->server_repair_s();
            break;
          case FaultType::kGpuFault:
            EF_FATAL_IF(ev.target < 0 ||
                            ev.target >= topology_.total_gpus(),
                        "scripted gpu-fault target " << ev.target
                            << " out of range");
            event.kind = Event::kGpuDown;
            event.dur = ev.duration_s > 0.0 ? ev.duration_s
                                            : fault_->gpu_repair_s();
            break;
          case FaultType::kStraggler:
            EF_FATAL_IF(find(static_cast<JobId>(ev.target)) == nullptr,
                        "scripted straggler targets unknown job "
                            << ev.target);
            event.kind = Event::kStragglerStart;
            event.dur = ev.duration_s > 0.0
                            ? ev.duration_s
                            : fault_->straggler_duration_s();
            event.mag = ev.magnitude > 1.0
                            ? ev.magnitude
                            : fault_->straggler_slowdown();
            break;
          default:
            continue;  // rpc-drop / ckpt-fail arm inside the injector
        }
        push_event(event);
    }
}

void
Simulator::evict_job(JobId id)
{
    JobRt &job = rt(id);
    const GpuCount old = job.gpus;
    const double rolled_back =
        std::max(0.0, job.executed - job.checkpoint_iters);
    placement_.release(id);
    job.gpus = 0;
    job.current_tpt = 0.0;
    job.state = JobState::kWaiting;
    job.executed = std::min(job.executed, job.checkpoint_iters);
    ++job.outcome.failures_suffered;
    result_.allocation_log.push_back(AllocationEvent{now_, id, {}});
    if (obs::tracing()) {
        obs::TraceEvent evict{now_, obs::EventKind::kJobEvict, id,
                              old};
        evict.x = rolled_back;
        obs::emit(evict);
        obs::emit({now_, obs::EventKind::kAllocChange, id, old});
    }
    obs::count("sim.evictions");
}

void
Simulator::handle_server_down(const Event &event)
{
    const int server = static_cast<int>(event.job);
    // The rate-based chain reschedules on repair (handle_server_up), so
    // a stale crash event draws nothing from the server stream.
    if (!placement_.server_available(server))
        return;  // already down (stale event)
    // Evict every job with a worker on the failed server: it loses its
    // GPUs and rolls back to its last checkpoint.
    std::vector<JobId> victims;
    for (JobId id : placement_.placed_jobs()) {
        for (GpuCount g : placement_.gpus_of(id)) {
            if (topology_.server_of(g) == server) {
                victims.push_back(id);
                break;
            }
        }
    }
    for (JobId id : victims)
        evict_job(id);
    placement_.set_server_available(server, false);
    view_dirty_ = true;  // capacity shrank; victims lost their GPUs
    ++fault_epoch_;
    obs::emit({now_, obs::EventKind::kServerDown, kInvalidJob, server,
               static_cast<std::int64_t>(victims.size())});
    obs::count("sim.faults.server_down");
    EF_INFO("server " << server << " failed at "
                      << format_double(now_ / kHour, 2) << " h ("
                      << victims.size() << " jobs evicted)");
    Time repair =
        event.dur > 0.0 ? event.dur : fault_->server_repair_s();
    push_event(Event{now_ + repair, next_seq_++, Event::kServerUp,
                       static_cast<JobId>(server)});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_gpu_down(const Event &event)
{
    const GpuCount gpu = static_cast<GpuCount>(event.job);
    if (!event.from_script)
        schedule_next_gpu_fault();
    const int server = topology_.server_of(gpu);
    if (!placement_.server_available(server))
        return;  // the whole server is already down; outage dominates
    if (!placement_.gpu_available(gpu))
        return;  // already down (stale event)
    // Finer-grained than a server crash: only the placement using this
    // one GPU is evicted; co-located jobs on other GPUs keep running.
    const JobId victim = placement_.owner_of(gpu);
    if (victim != kInvalidJob)
        evict_job(victim);
    placement_.set_gpu_available(gpu, false);
    ++result_.gpu_faults;
    ++fault_epoch_;
    view_dirty_ = true;
    obs::emit({now_, obs::EventKind::kGpuDown, kInvalidJob, gpu,
               victim != kInvalidJob ? 1 : 0});
    obs::count("sim.faults.gpu_down");
    EF_INFO("GPU " << gpu << " failed at "
                   << format_double(now_ / kHour, 2) << " h"
                   << (victim != kInvalidJob ? " (1 job evicted)"
                                             : ""));
    Time repair = event.dur > 0.0 ? event.dur : fault_->gpu_repair_s();
    push_event(Event{now_ + repair, next_seq_++, Event::kGpuUp,
                       static_cast<JobId>(gpu)});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_gpu_up(GpuCount gpu)
{
    if (placement_.gpu_available(gpu))
        return;  // stale event
    placement_.set_gpu_available(gpu, true);
    view_dirty_ = true;  // capacity grew
    obs::emit({now_, obs::EventKind::kGpuUp, kInvalidJob, gpu});
    if (any_nonterminal_jobs())
        request_replan();
}

void
Simulator::handle_straggler_start(const Event &event)
{
    JobRt &job = rt(event.job);
    if (!job.active())
        return;  // finished or dropped before the fault fired
    job.straggler_factor = std::max(1.0, event.mag);
    job.straggler_until = now_ + event.dur;
    ++result_.stragglers_observed;
    if (obs::tracing()) {
        obs::TraceEvent straggle{
            now_, obs::EventKind::kStragglerStart, event.job};
        straggle.x = job.straggler_factor;
        obs::emit(straggle);
    }
    obs::count("sim.stragglers");
    push_event(Event{job.straggler_until, next_seq_++,
                       Event::kStragglerEnd, event.job});
    // Stragglers change throughput, not capacity: no replan, but the
    // job's completion must be re-predicted at the slowed rate.
    if (job.state == JobState::kRunning && job.gpus > 0)
        refresh_throughput(job);
}

void
Simulator::handle_straggler_end(JobId id)
{
    JobRt &job = rt(id);
    // Stale: a newer window superseded this one, or the job finished
    // (a finished job never changes again; DESIGN.md §7).
    if (!job.active() || job.straggler_factor <= 1.0 ||
        now_ < job.straggler_until)
        return;
    job.straggler_factor = 1.0;
    job.straggler_until = -kTimeInfinity;
    obs::emit({now_, obs::EventKind::kStragglerEnd, id});
    if (job.state == JobState::kRunning && job.gpus > 0)
        refresh_throughput(job);
}

void
Simulator::handle_server_up(int server)
{
    if (placement_.server_available(server))
        return;
    placement_.set_server_available(server, true);
    view_dirty_ = true;  // capacity grew
    obs::emit({now_, obs::EventKind::kServerUp, kInvalidJob, server});
    schedule_next_failure(server);
    if (any_nonterminal_jobs())
        request_replan();
}

std::uint64_t
Simulator::state_hash() const
{
    return recover::digest(*this);
}

std::uint64_t
Simulator::recomputed_state_hash() const
{
    return recover::recomputed_digest(*this);
}

void
Simulator::audit_state(bool terminal)
{
    WordHash h;
    h.u64(result_.state_hash);
    h.u64(state_hash());
    result_.state_hash = h.digest();
    ++result_.state_hash_samples;
    if (durable_ != nullptr || replaying())
        commit_round(terminal);
}

std::uint64_t
Simulator::compute_fingerprint() const
{
    // The inputs a snapshot is only valid against. Every job's spec in
    // full, the topology and the noise setting: a resume rebuilds each
    // row's spec, curve, throughput and noise factor from them.
    // Deliberately absent: the fault *rates* (the injector's RNG
    // cursors are in the snapshot body).
    Fnv1a h;
    h.str(recover::encode(trace_.name, trace_.topology, trace_.jobs));
    h.f64(config_.noise.throughput_error);
    h.str(result_.scheduler_name);
    h.byte(fault_ != nullptr ? 1 : 0);
    h.f64(config_.max_time);
    return h.digest();
}

recover::Status
Simulator::recover_state(const std::string &snapshot,
                         const recover::JournalContents &tail)
{
    using recover::ErrorCode;
    using recover::RecordKind;
    using recover::Status;

    Status st = recover::restore_checkpoint(snapshot, fingerprint_, *this,
                                            &recovered_tip_);
    if (!st.ok())
        return st;

    // Collect the round commits the re-execution must reproduce.
    // Re-execution regenerates everything else from the snapshot, so
    // the simulator journals nothing but these; any other kind after
    // the head is a journal this simulator did not write.
    replay_.clear();
    recovered_journal_bytes_ = tail.valid_bytes;
    for (std::size_t i = 0; i < tail.records.size(); ++i) {
        const recover::JournalRecord &rec = tail.records[i];
        if (rec.kind != RecordKind::kRoundCommit) {
            return Status::error(
                ErrorCode::kBadRecord,
                std::string("unexpected ") +
                    recover::record_kind_name(rec.kind) +
                    " record in a simulator journal",
                static_cast<std::int64_t>(i));
        }
        ReplayCommit rc;
        if (!recover::decode(rec.body, rc).ok()) {
            return Status::error(ErrorCode::kBadRecord,
                                 "malformed round-commit record",
                                 static_cast<std::int64_t>(i));
        }
        const std::uint64_t expected =
            result_.state_hash_samples + replay_.size() + 1;
        if (rc.round != expected) {
            return Status::error(
                ErrorCode::kBadRecord,
                "round-commit sequence is not contiguous with the "
                "snapshot",
                static_cast<std::int64_t>(i));
        }
        replay_.push_back(rc);
    }
    replay_next_ = 0;
    if (!replay_.empty()) {
        // The last durable commit is authoritative for the scripted
        // crash cursor: it was written *after* that round's crash
        // check, so the crash that interrupted the run (if scripted)
        // is already consumed and cannot re-fire.
        sched_crash_cursor_ = replay_.back().crash_cursor;
    }
    recovered_ = true;
    // Every record read is a round commit to re-execute.
    obs::emit({now_, obs::EventKind::kRecoveryBegin, kInvalidJob,
               static_cast<std::int64_t>(replay_.size()),
               static_cast<std::int64_t>(replay_.size())});
    obs::count("recover.journal_records", replay_.size());
    if (replay_.empty())
        finish_recovery();  // nothing to re-execute; resume directly
    return Status{};
}

void
Simulator::finish_recovery()
{
    // Re-anchor the log at the recovered state. The journal is
    // reopened for *append* (keeping the replayed records) and the
    // fresh base deferred to the next event-loop boundary: the replay
    // exhausts inside commit_round, mid-flush_replan, where a
    // checkpoint would capture a state the uninterrupted run never
    // holds at a boundary (same argument as the cadence deferral).
    // Until that base lands, the old chain + full journal is still a
    // complete recovery image, so a crash here loses nothing.
    durable_ = std::make_unique<recover::DurableLog>();
    recover::Status st = durable_->open_existing(
        config_.durability.journal_dir, recovered_tip_,
        recovered_journal_bytes_);
    EF_FATAL_IF(!st.ok(),
                "durability: reopening the journal failed: "
                    << st.to_string());
    snapshot_pending_ = true;
    obs::emit({now_, obs::EventKind::kRecoveryEnd, kInvalidJob,
               static_cast<std::int64_t>(replay_next_)});
    // Deterministic replay cost: journal records re-applied. (A
    // wall-clock replay_ms would break byte-identical obs dumps.)
    obs::observe("recover.replay_cost_units", kReplayEdges,
                 static_cast<double>(replay_.size()));
}

void
Simulator::commit_round(bool terminal)
{
    const std::uint64_t round = result_.state_hash_samples;
    if (replaying()) {
        // Re-executing a journaled round: verify instead of write.
        const ReplayCommit &expect = replay_[replay_next_];
        EF_FATAL_IF(
            expect.round != round || expect.hash != result_.state_hash,
            "recovery divergence at round "
                << round << ": journal has hash "
                << expect.hash << " for round " << expect.round
                << ", re-execution produced " << result_.state_hash);
        sched_crash_cursor_ = expect.crash_cursor;
        ++replay_next_;
        obs::count("recover.replay_rounds");
        if (!replaying())
            finish_recovery();
        return;
    }
    if (durable_ == nullptr)
        return;

    // Crash decision BEFORE the commit record: the persisted cursor
    // must already exclude a crash that fires at this round, or
    // recovery would re-fire it forever.
    bool will_crash = false;
    if (fault_ != nullptr) {
        const std::vector<FaultEvent> &script =
            fault_->sched_crash_events();
        if (sched_crash_cursor_ < script.size()) {
            const FaultEvent &ev = script[sched_crash_cursor_];
            if (now_ >= ev.time &&
                (ev.target < 0 ||
                 round >= static_cast<std::uint64_t>(ev.target))) {
                ++sched_crash_cursor_;
                will_crash = true;
                obs::count("fault.sched_crashes");
            }
        }
        if (fault_->sched_crash_fires())
            will_crash = true;
    }

    recover::Status st = durable_->append(
        recover::RecordKind::kRoundCommit,
        recover::encode(ReplayCommit{round, now_, result_.state_hash,
                                     sched_crash_cursor_, terminal}));
    EF_FATAL_IF(!st.ok(),
                "durability: journal append failed: " << st.to_string());
    st = durable_->commit();
    EF_FATAL_IF(!st.ok(),
                "durability: round commit failed: " << st.to_string());
    obs::count("recover.journal_records");

    if (!terminal && !will_crash &&
        round - snapshot_round_ >= config_.durability.snapshot_every) {
        // Deferred to the event-loop boundary: the commit fires from
        // inside flush_replan, before arm_tick() re-arms the tick, so
        // snapshotting here would capture a state the uninterrupted
        // run never passes through.
        snapshot_pending_ = true;
    }
    if (will_crash) {
        crashed_ = true;
        obs::count("fault.sched_crashes");
        EF_INFO("scheduler crash injected at round "
                << round << " (t=" << format_double(now_, 3) << " s)");
    }
}

recover::Status
Simulator::write_snapshot_now()
{
    EF_CHECK_MSG(durable_ != nullptr && !durable_->dir().empty(),
                 "durability is not prepared");
    std::uint64_t bytes = 0;
    recover::Status st = recover::write_checkpoint(
        *durable_, fingerprint_, *this, /*base=*/false, &bytes);
    if (!st.ok())
        return st;
    snapshot_round_ = result_.state_hash_samples;
    obs::count("recover.snapshots");
    obs::count("recover.snapshot_bytes", bytes);
    obs::gauge_set("recover.snapshot_bytes_last",
                   static_cast<double>(bytes));
    return st;
}

recover::Status
Simulator::prepare_durability()
{
    using recover::Status;
    if (durability_ready_)
        return Status{};
    const DurabilityConfig &cfg = config_.durability;
    EF_CHECK_MSG(!cfg.journal_dir.empty(),
                 "prepare_durability needs a journal_dir");
    EF_FATAL_IF(cfg.snapshot_every < 1,
                "durability.snapshot_every must be >= 1");
    // Only durable runs read or write checkpoints, so only they pay
    // for the pass over the trace.
    fingerprint_ = compute_fingerprint();
    if (cfg.recover) {
        std::string snapshot;
        recover::JournalContents contents;
        Status st = recover::DurableLog::load(cfg.journal_dir,
                                              &snapshot, &contents);
        if (!st.ok())
            return st;
        if (contents.tail.code != recover::ErrorCode::kOk) {
            EF_INFO("journal tail discarded during recovery: "
                    << contents.tail.to_string());
        }
        st = recover_state(snapshot, contents);
        if (!st.ok())
            return st;
    } else {
        durable_ = std::make_unique<recover::DurableLog>();
        Status st = durable_->open(cfg.journal_dir);
        if (!st.ok()) {
            durable_.reset();
            return st;
        }
    }
    durability_ready_ = true;
    return Status{};
}

void
Simulator::request_replan()
{
    ++result_.replans_attempted;
    if (replan_pending_) {
        ++result_.replans_coalesced;
        obs::count("sim.replans.coalesced");
        return;
    }
    replan_pending_ = true;
    if (!config_.coalesce_replans)
        flush_replan();
}

void
Simulator::flush_replan()
{
    EF_CHECK(replan_pending_);
    replan_pending_ = false;
    const Time since_last = now_ - last_decision_time_;
    if (config_.elide_replans && !view_dirty_ &&
        now_ == last_decision_time_) {
        // No arrival/completion/failure touched scheduler-visible
        // state since a decision was already made at this very
        // timestamp (the request came from a colliding tick). A
        // deterministic policy would return the same decision, and
        // re-applying a decision is a no-op — skip the call.
        ++result_.replans_elided;
        if (obs::tracing()) {
            obs::emit({now_, obs::EventKind::kReplanBegin, kInvalidJob,
                       static_cast<std::int64_t>(active_.live.size())});
            obs::emit({now_, obs::EventKind::kReplanEnd, kInvalidJob,
                       /*executed=*/0, /*resizes=*/0});
        }
        obs::count("sim.replans.elided");
        audit_state();
        arm_tick();
        return;
    }
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kReplanBegin, kInvalidJob,
                   static_cast<std::int64_t>(active_.live.size())});
    }
    const std::size_t log_before = result_.allocation_log.size();
    SchedulerDecision decision = scheduler_->allocate();
    view_dirty_ = false;
    last_decision_time_ = now_;
    apply_decision(decision);
    const std::size_t resizes =
        result_.allocation_log.size() - log_before;
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kReplanEnd, kInvalidJob,
                   /*executed=*/1,
                   static_cast<std::int64_t>(resizes)});
    }
    if (obs::metrics() != nullptr) {
        obs::count("sim.replans.executed");
        obs::observe("sim.replan_resizes", kResizeEdges,
                     static_cast<double>(resizes));
        if (since_last >= 0.0 && !is_unbounded(since_last)) {
            obs::observe("sim.replan_interval_s", kReplanIntervalEdges,
                         since_last);
        }
        std::int64_t waiting = 0;
        for (std::uint32_t slot : active_.live)
            waiting += jobs_[slot].state == JobState::kWaiting ? 1 : 0;
        obs::observe("sim.queue_depth", kQueueDepthEdges,
                     static_cast<double>(waiting));
        obs::gauge_set("sim.queue_depth_last",
                       static_cast<double>(waiting));
        // Fragmentation: share of idle capacity outside the largest
        // contiguous per-server free block — high values mean a
        // compact placement cannot be found without migrations.
        GpuCount idle = placement_.idle_gpus();
        GpuCount largest_free = 0;
        for (int server = 0; server < topology_.num_servers();
             ++server) {
            largest_free = std::max(largest_free,
                                    placement_.free_in_server(server));
        }
        double fragmentation =
            idle > 0 ? 1.0 - static_cast<double>(largest_free) /
                                 static_cast<double>(idle)
                     : 0.0;
        obs::observe("sim.fragmentation", kFragmentationEdges,
                     fragmentation);
        obs::gauge_set("sim.fragmentation_last", fragmentation);
    }
    // Failure-aware policies report SLO jobs whose guarantee a fault
    // broke; each is demoted to best-effort exactly once.
    for (JobId id : scheduler_->take_demotions()) {
        JobRt &job = rt(id);
        if (job.outcome.demoted)
            continue;
        job.outcome.demoted = true;
        ++result_.slo_demotions;
        obs::emit({now_, obs::EventKind::kJobDemote, id});
        obs::count("sim.demotions");
        EF_INFO("job " << id << " demoted to best-effort at "
                       << format_double(now_ / kHour, 2) << " h");
    }
    record_timelines();
    audit_state();
    arm_tick();
}

void
Simulator::record_fragmentation()
{
    const FragmentationStats stats = fragmentation_stats(placement_);
    result_.buddy_fragmentation.record(now_,
                                       stats.buddy_external_frag);
    result_.span_excess.record(
        now_, static_cast<double>(stats.total_span_excess));
    if (obs::metrics() != nullptr) {
        obs::gauge_set("sim.buddy_fragmentation_last",
                       stats.buddy_external_frag);
        obs::observe("sim.buddy_fragmentation", kFragmentationEdges,
                     stats.buddy_external_frag);
        obs::gauge_set("sim.span_excess_last",
                       static_cast<double>(stats.total_span_excess));
        obs::observe("sim.span_excess", kSpanExcessEdges,
                     static_cast<double>(stats.total_span_excess));
    }
}

void
Simulator::handle_arrival(JobId id)
{
    JobRt &job = rt(id);
    EF_CHECK_MSG(!job.arrived, "second arrival of job " << id);
    obs::emit({now_, obs::EventKind::kJobSubmit, id,
               job.spec->requested_gpus});
    obs::count("sim.jobs.submitted");
    const bool admitted = scheduler_->admit(*job.spec);
    const std::size_t slot = slot_of(job);
    active_.unseal(slot, job);  // leaves the not-yet-arrived jobs
    job.arrived = true;
    job.outcome.admitted = admitted;
    if (!admitted) {
        job.state = JobState::kDropped;
        active_.freeze(slot, job);  // dropped: never changes again
        obs::emit({now_, obs::EventKind::kJobReject, id});
        obs::count("sim.jobs.rejected");
        EF_DEBUG("job " << id << " dropped at submission");
    } else {
        job.state = JobState::kWaiting;
        active_.set_live(slot, true);
        obs::emit({now_, obs::EventKind::kJobAdmit, id});
        obs::count("sim.jobs.admitted");
    }

    ++arrived_;
    admitted_ += admitted ? 1 : 0;
    result_.submitted_jobs.record(now_, static_cast<double>(arrived_));
    result_.admitted_jobs.record(now_, static_cast<double>(admitted_));
    if (admitted) {
        view_dirty_ = true;  // the active-job set grew
        request_replan();
    }
}

void
Simulator::handle_completion_check(JobId id)
{
    JobRt &job = rt(id);
    if (job.state != JobState::kRunning)
        return;  // stale event
    if (job.remaining() > kIterEpsilon)
        return;  // stale event: the job was slowed after scheduling

    const GpuCount held = job.gpus;
    job.executed = static_cast<double>(job.spec->iterations);
    job.state = JobState::kFinished;
    job.outcome.finished = true;
    job.outcome.finish_time = now_;
    placement_.release(id);
    job.gpus = 0;
    job.current_tpt = 0.0;
    const std::size_t slot = slot_of(job);
    active_.set_live(slot, false);
    active_.freeze(slot, job);  // finished: never changes again
    if (obs::tracing()) {
        obs::emit({now_, obs::EventKind::kAllocChange, id, held});
        obs::emit({now_, obs::EventKind::kJobFinish, id, held});
    }
    obs::count("sim.jobs.finished");
    view_dirty_ = true;  // the active-job set shrank, GPUs freed
    request_replan();
}

void
Simulator::handle_tick()
{
    // A tick by itself changes nothing the scheduler observes; the
    // replan it requests is elidable if it lands on a timestamp where
    // a decision was already made (view_dirty_ stays false).
    tick_armed_ = false;
    if (any_nonterminal_jobs())
        request_replan();
}

bool
Simulator::work_pending() const
{
    return arrived_ < jobs_.size() || !active_.live.empty();
}

RunResult
Simulator::run()
{
    if (!config_.durability.journal_dir.empty() &&
        !durability_ready_) {
        recover::Status st = prepare_durability();
        EF_FATAL_IF(!st.ok(), "durability: " << st.to_string());
    }
    if (!recovered_) {
        for (const JobRt &job : jobs_) {
            push_event(Event{job.spec->submit_time, next_seq_++,
                             Event::kArrival, job.id});
        }
        if (fault_ != nullptr) {
            if (fault_->server_crashes_enabled()) {
                for (int server = 0;
                     server < topology_.num_servers(); ++server) {
                    schedule_next_failure(server);
                }
            }
            schedule_next_gpu_fault();
            queue_scripted_faults();
        }
        if (durable_ != nullptr) {
            // Base snapshot of the seeded initial state: recovery
            // always has something to load, even before round 1.
            recover::Status st = write_snapshot_now();
            EF_FATAL_IF(!st.ok(), "durability: initial snapshot "
                                  "failed: "
                                      << st.to_string());
        }
    }

    while (true) {
        // Coalescing: a pending replan is flushed only once every
        // event at the current timestamp has been handled (flushing
        // may enqueue new events, so re-read the top afterwards).
        if (replan_pending_ &&
            (events_.empty() || events_.front().time > now_)) {
            flush_replan();
            if (crashed_)
                break;  // injected scheduler crash at a round commit
        }
        if (snapshot_pending_) {
            // Cadence snapshot, taken at a clean inter-event boundary
            // so the captured state matches what the uninterrupted
            // run holds at this point.
            snapshot_pending_ = false;
            recover::Status st = write_snapshot_now();
            EF_FATAL_IF(!st.ok(),
                        "durability: cadence snapshot failed: "
                            << st.to_string());
        }
        if (events_.empty())
            break;
        std::pop_heap(events_.begin(), events_.end(), event_after);
        const Event event = events_.back();
        events_.pop_back();
        if ((event.kind == Event::kServerDown ||
             event.kind == Event::kServerUp ||
             event.kind == Event::kGpuDown ||
             event.kind == Event::kGpuUp ||
             event.kind == Event::kStragglerStart ||
             event.kind == Event::kStragglerEnd) &&
            !work_pending()) {
            continue;  // drain the fault stream once all jobs ended
        }
        if (event.time > config_.max_time) {
            EF_WARN("simulation hit max_time with "
                    << (any_nonterminal_jobs() ? "unfinished" : "no")
                    << " jobs");
            break;
        }
        advance_progress(event.time);
        now_ = event.time;
        switch (event.kind) {
          case Event::kArrival:
            handle_arrival(event.job);
            break;
          case Event::kCompletion:
            handle_completion_check(event.job);
            break;
          case Event::kTick:
            handle_tick();
            break;
          case Event::kServerDown:
            handle_server_down(event);
            break;
          case Event::kServerUp:
            handle_server_up(static_cast<int>(event.job));
            break;
          case Event::kGpuDown:
            handle_gpu_down(event);
            break;
          case Event::kGpuUp:
            handle_gpu_up(static_cast<GpuCount>(event.job));
            break;
          case Event::kStragglerStart:
            handle_straggler_start(event);
            break;
          case Event::kStragglerEnd:
            handle_straggler_end(event.job);
            break;
        }
    }

    result_.jobs.clear();
    for (const JobRt &job : jobs_) {
        result_.jobs.push_back(JobOutcome{job.outcome, *job.spec,
                                          job.attained_gpu_seconds});
        if (job.outcome.finished) {
            result_.makespan =
                std::max(result_.makespan, job.outcome.finish_time);
        }
    }
    result_.replan_failures = scheduler_->replan_failures();
    // Final digest over the terminal state. An injected crash dies at
    // its commit point instead — that commit is already durable, and
    // the recovered run takes the terminal sample itself.
    if (!crashed_)
        audit_state(/*terminal=*/true);
    if (snapshot_pending_ && !crashed_ && durable_ != nullptr) {
        // Replay exhausted at the terminal round: the end of the run
        // is itself a clean boundary, so the deferred post-recovery
        // snapshot lands here.
        snapshot_pending_ = false;
        recover::Status st = write_snapshot_now();
        EF_FATAL_IF(!st.ok(), "durability: terminal snapshot failed: "
                                  << st.to_string());
    }
    EF_FATAL_IF(!crashed_ && replaying(),
                "recovery divergence: journal holds "
                    << replay_.size() - replay_next_
                    << " round commits the re-execution never "
                       "reached");
    return result_;
}

}  // namespace ef

