#include "serve/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/math_util.h"
#include "core/allocator.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "recover/fields.h"
#include "sched/planning_util.h"

namespace ef {
namespace serve {
namespace {

/** Decision-latency histogram edges (seconds). Queue-full sheds are
 *  decided synchronously (latency 0); queued verdicts wait up to the
 *  starvation horizon, so the edges are dense in that range. */
const std::vector<double> &
latency_edges()
{
    static const std::vector<double> kEdges = {
        0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0,
        20.0,  30.0, 60.0, 120.0, 300.0};
    return kEdges;
}

const char *
verdict_counter(ShedVerdict verdict)
{
    switch (verdict) {
      case ShedVerdict::kAdmitted:
        return "serve.verdict.admitted";
      case ShedVerdict::kAdmittedBestEffort:
        return "serve.verdict.admitted_best_effort";
      case ShedVerdict::kDegraded:
        return "serve.verdict.degraded";
      case ShedVerdict::kShedQueueFull:
        return "serve.verdict.shed_queue_full";
      case ShedVerdict::kShedInfeasible:
        return "serve.verdict.shed_infeasible";
    }
    return "serve.verdict.unknown";
}

}  // namespace

Service::Service(ServiceConfig config, FaultInjector *faults)
    : config_(config),
      faults_(faults),
      governor_(config.governor)
{
    EF_FATAL_IF(config_.total_gpus <= 0, "service needs total_gpus > 0");
    EF_FATAL_IF(config_.slot_seconds <= 0.0,
                "service needs slot_seconds > 0");
    EF_FATAL_IF(config_.queue_watermark < 1,
                "service needs queue_watermark >= 1");
    planner_.total_gpus = config_.total_gpus;
    planner_.slot_seconds = config_.slot_seconds;
    planner_.direction = config_.direction;
    planner_.max_slots = config_.max_slots;
}

void
Service::submit(Submission submission)
{
    EF_FATAL_IF(submission.spec.submit_time < now_,
                "service submissions must arrive in time order (got "
                    << submission.spec.submit_time << " at clock "
                    << now_ << ")");
    EF_FATAL_IF(pending_or_active(submission.spec.id),
                "service job " << submission.spec.id
                               << " is already pending or active");
    if (durable_ != nullptr) {
        // The submission is durable before any of its effects: a crash
        // after this point replays it; a crash before it never saw it.
        journal_append(recover::RecordKind::kSubmission, /*sync=*/true,
                       submission);
    }
    advance_internal(submission.spec.submit_time);

    if (faults_ != nullptr) {
        const int forced = faults_->take_scripted_rpc_drops(
            submission.spec.id, now_);
        if (forced > 0 || faults_->rpc_attempt_lost()) {
            // The submission RPC never reached the service: no verdict,
            // no queue slot. A real client would retry; the stream
            // moves on (the drop is part of the deterministic record).
            ++stats_.rpc_dropped;
            obs::count("serve.rpc_dropped");
            maybe_snapshot();
            return;
        }
    }

    if (pending_.size() >= config_.queue_watermark) {
        // Synchronous backpressure: O(1), no planning work, decided at
        // submission time.
        decide(submission, now_, ShedVerdict::kShedQueueFull);
        maybe_snapshot();
        return;
    }
    pending_.push_back(std::move(submission));
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth, pending_.size());
    obs::gauge_set("serve.queue_depth",
                   static_cast<double>(pending_.size()));
    if (pending_.size() == 1)
        arm();
    maybe_snapshot();
}

bool
Service::pending_or_active(JobId id) const
{
    return slo_.contains(id) || best_effort_.contains(id) ||
           std::any_of(pending_.begin(), pending_.end(),
                       [id](const Submission &queued) {
                           return queued.spec.id == id;
                       });
}

void
Service::advance_to(Time t)
{
    if (durable_ != nullptr) {
        journal_append(recover::RecordKind::kAdvance, /*sync=*/false, t,
                       /*finish=*/false);
    }
    advance_internal(t);
    maybe_snapshot();
}

void
Service::advance_internal(Time t)
{
    EF_FATAL_IF(t < now_, "service clock cannot go backwards (to "
                              << t << " from " << now_ << ")");
    while (!pending_.empty() && next_due_ <= t) {
        now_ = std::max(now_, next_due_);
        run_round(now_);
    }
    now_ = std::max(now_, t);
}

void
Service::finish()
{
    if (durable_ != nullptr) {
        journal_append(recover::RecordKind::kAdvance, /*sync=*/false,
                       now_, /*finish=*/true);
    }
    // At most two rounds: the first may be abandoned by the watchdog,
    // the escalated retry always commits and drains the queue.
    if (!pending_.empty())
        run_round(now_);
    if (!pending_.empty())
        run_round(now_);
    EF_CHECK(pending_.empty());
    maybe_snapshot();
}

void
Service::arm()
{
    if (pending_.empty()) {
        next_due_ = kTimeInfinity;
        return;
    }
    // Token-funded round when the bucket allows it; otherwise forced
    // at the oldest submission's starvation horizon, whichever is
    // earlier.
    const Time horizon_due = pending_.front().spec.submit_time +
                             config_.governor.starvation_horizon_s;
    next_due_ = std::max(
        now_, std::min(governor_.next_eligible(now_), horizon_due));
}

void
Service::decide(const Submission &submission, Time at,
                ShedVerdict verdict)
{
    bool deliver = true;
    if (replaying()) {
        if (replay_verdict_next_ < replay_verdicts_.size()) {
            // This verdict reached the journal before the crash, so
            // the caller already observed it: verify the replay
            // reproduced it and suppress the callback (exactly-once).
            const ReplayVerdict &want =
                replay_verdicts_[replay_verdict_next_];
            EF_FATAL_IF(
                want.id != submission.spec.id ||
                    want.verdict != static_cast<std::uint8_t>(verdict),
                "recovery divergence: journaled verdict "
                    << replay_verdict_next_ << " was (job " << want.id
                    << ", " << static_cast<int>(want.verdict)
                    << ") but the replay produced (job "
                    << submission.spec.id << ", "
                    << static_cast<int>(verdict) << ")");
            ++replay_verdict_next_;
            deliver = false;
        }
        // Otherwise the crash hit between the submission record and
        // its verdict: the caller never saw one, deliver it now.
    } else if (durable_ != nullptr) {
        // Verdict is durable before the caller can observe it, so a
        // post-crash replay knows not to re-issue it.
        journal_append(recover::RecordKind::kVerdict, /*sync=*/true,
                       submission.spec.id, verdict, at);
    }
    ++stats_.submitted;
    switch (verdict) {
      case ShedVerdict::kAdmitted:
        ++stats_.admitted;
        break;
      case ShedVerdict::kAdmittedBestEffort:
        ++stats_.admitted_best_effort;
        break;
      case ShedVerdict::kDegraded:
        ++stats_.degraded;
        break;
      case ShedVerdict::kShedQueueFull:
        ++stats_.shed_queue_full;
        break;
      case ShedVerdict::kShedInfeasible:
        ++stats_.shed_infeasible;
        break;
    }
    obs::count(verdict_counter(verdict));
    obs::observe("serve.decision_latency_s", latency_edges(),
                 at - submission.spec.submit_time);
    if (obs::tracing() && is_shed(verdict)) {
        obs::TraceEvent event;
        event.time = at;
        event.kind = obs::EventKind::kServeShed;
        event.job = submission.spec.id;
        event.a = static_cast<std::int64_t>(verdict);
        event.b = static_cast<std::int64_t>(pending_.size());
        obs::emit(event);
    }
    if (deliver && on_decision_) {
        on_decision_(Decision{submission.spec.id,
                              submission.spec.submit_time, at, verdict});
    }
}

std::size_t
Service::ActiveTable::find(JobId id) const
{
    auto at = std::lower_bound(
        rows.begin(), rows.end(), id,
        [](const PlanningJob &row, JobId key) { return row.id < key; });
    return at != rows.end() && at->id == id
               ? static_cast<std::size_t>(at - rows.begin())
               : rows.size();
}

void
Service::ActiveTable::insert(PlanningJob job, GpuCount g)
{
    const auto key = static_cast<std::uint64_t>(job.id);
    row_sum.seal(key, job);
    gpu_sum.seal(key, g);
    auto at = std::lower_bound(
        rows.begin(), rows.end(), job.id,
        [](const PlanningJob &row, JobId id) { return row.id < id; });
    const auto offset = at - rows.begin();
    rows.insert(at, std::move(job));
    gpus.insert(gpus.begin() + offset, g);
}

PlanningJob
Service::ActiveTable::take(std::size_t i, GpuCount *g)
{
    const auto key = static_cast<std::uint64_t>(rows[i].id);
    row_sum.drop(key, rows[i]);
    gpu_sum.drop(key, gpus[i]);
    PlanningJob job = std::move(rows[i]);
    *g = gpus[i];
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(i));
    gpus.erase(gpus.begin() + static_cast<std::ptrdiff_t>(i));
    return job;
}

void
Service::ActiveTable::set_gpus(std::size_t i, GpuCount g)
{
    if (gpus[i] == g)
        return;
    const auto key = static_cast<std::uint64_t>(rows[i].id);
    gpu_sum.drop(key, gpus[i]);
    gpus[i] = g;
    gpu_sum.seal(key, g);
}

void
Service::ActiveTable::progress(Time from, Time dt, ServiceStats *stats)
{
    std::size_t kept = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        PlanningJob &job = rows[i];
        const GpuCount g = gpus[i];
        // Suspended rows (no GPUs, or none they can use) neither
        // progress nor change.
        const double tpt = g > 0 ? job.curve.throughput(g) : 0.0;
        const auto key = static_cast<std::uint64_t>(job.id);
        if (tpt > 0.0 && tpt * dt + 1e-9 >= job.remaining_iterations) {
            const Time finish = from + job.remaining_iterations / tpt;
            ++stats->finished;
            obs::count("serve.finished");
            // Best-effort deadlines are infinite: SLO jobs only.
            if (finish > job.deadline + 1e-6) {
                ++stats->deadline_misses;
                obs::count("serve.deadline_misses");
            }
            row_sum.drop(key, job);
            gpu_sum.drop(key, g);
            continue;
        }
        if (tpt > 0.0) {
            row_sum.drop(key, job);
            job.remaining_iterations -= tpt * dt;
            row_sum.seal(key, job);
        }
        if (kept != i) {
            rows[kept] = std::move(job);
            gpus[kept] = g;
        }
        ++kept;
    }
    rows.resize(kept);
    gpus.resize(kept);
}

void
Service::retire(Time t)
{
    const Time dt = t - last_round_;
    if (dt <= 0.0)
        return;
    slo_.progress(last_round_, dt, &stats_);
    best_effort_.progress(last_round_, dt, &stats_);
}

void
Service::run_round(Time t)
{
    // Fluid progress since the last committed round, then completion
    // retirement, happens before any replanning sees the job set.
    // last_round_ must advance immediately: a watchdog-abandoned
    // round retries at the same t, and the retry's retire(t) would
    // otherwise re-apply the same interval's progress.
    retire(t);
    last_round_ = t;

    // The SLO rows are copied: the refresh inflates them and may relax
    // their deadlines.
    const PlanningMargin margin{config_.admission_margin,
                                config_.overhead_allowance_s};
    std::vector<PlanningJob> slo(slo_.rows);
    for (PlanningJob &job : slo) {
        job.remaining_iterations =
            margin.inflate(job.remaining_iterations, job.curve);
    }

    std::uint64_t cost = 0;
    MinShareRefresh refresh = refresh_min_shares(
        planner_, t, std::move(slo), &replan_failures_, false, &cost);
    stats_.planning_cost += cost;
    if (config_.watchdog_budget > 0 && !escalated_ &&
        cost > config_.watchdog_budget) {
        // Watchdog: this refresh blew the planning budget. Abandon it,
        // keep the last committed plans and allocations, and retry
        // immediately with the budget lifted, draining the queue in
        // one batch. Cost units are deterministic, so the timeout
        // replays identically.
        ++stats_.replan_timeouts;
        obs::count("serve.replan_timeouts");
        if (obs::tracing()) {
            obs::TraceEvent event;
            event.time = t;
            event.kind = obs::EventKind::kServeTimeout;
            event.a = static_cast<std::int64_t>(cost);
            event.b =
                static_cast<std::int64_t>(config_.watchdog_budget);
            obs::emit(event);
        }
        escalated_ = true;
        next_due_ = t;
        return;
    }
    escalated_ = false;

    // Jobs the refresh had to park lose their guarantee but keep
    // their progress: they continue as best-effort.
    for (const PlanningJob &parked : refresh.parked) {
        const std::size_t i = slo_.find(parked.id);
        if (i == slo_.rows.size())
            continue;
        GpuCount gpus = 0;
        PlanningJob moved = slo_.take(i, &gpus);
        moved.deadline = kTimeInfinity;
        moved.soft = false;
        best_effort_.insert(std::move(moved), gpus);
        ++stats_.demotions;
        obs::count("serve.demotions");
    }

    // Admissions reserve into the refresh's ledger, after its rows.
    ShareLedger &ledger = refresh.ledger;
    const bool token = governor_.try_acquire(t);
    const std::size_t batch = pending_.size();
    std::uint64_t drain_cost = 0;
    while (!pending_.empty()) {
        Submission sub = std::move(pending_.front());
        pending_.pop_front();
        const JobSpec &spec = sub.spec;
        // The submission as an active row: its curve and work, no
        // deadline yet.
        PlanningJob job;
        job.id = spec.id;
        job.curve = std::move(sub.curve);
        job.remaining_iterations = static_cast<double>(spec.iterations);
        if (spec.is_best_effort()) {
            if (best_effort_.rows.size() >=
                config_.max_active_best_effort) {
                decide(sub, t, ShedVerdict::kShedQueueFull);
                continue;
            }
            best_effort_.insert(std::move(job), 0);
            decide(sub, t, ShedVerdict::kAdmittedBestEffort);
            continue;
        }
        PlanningJob share = job;
        share.remaining_iterations =
            margin.inflate(share.remaining_iterations, share.curve);
        share.deadline = spec.deadline;
        share.soft = spec.has_soft_deadline();
        const PlanHorizon d =
            plan_horizon(t, spec.deadline, planner_.slot_seconds,
                         planner_.max_slots);
        if (ledger.reserve(std::move(share), d, planner_, &drain_cost)) {
            job.deadline = spec.deadline;
            job.soft = spec.has_soft_deadline();
            slo_.insert(std::move(job), 0);
            decide(sub, t, ShedVerdict::kAdmitted);
        } else if (config_.degrade_infeasible &&
                   best_effort_.rows.size() <
                       config_.max_active_best_effort) {
            best_effort_.insert(std::move(job), 0);
            decide(sub, t, ShedVerdict::kDegraded);
        } else {
            decide(sub, t, ShedVerdict::kShedInfeasible);
        }
    }
    stats_.planning_cost += drain_cost;

    // Every active row is in exactly one of the two lists.
    const AllocationOutcome outcome =
        run_allocation(planner_, t, ledger, best_effort_.rows);
    for (std::size_t k = 0; k < ledger.jobs.size(); ++k)
        slo_.set_gpus(slo_.find(ledger.jobs[k].id), outcome.slo_gpus[k]);
    for (std::size_t j = 0; j < best_effort_.rows.size(); ++j)
        best_effort_.set_gpus(j, outcome.best_effort_gpus[j]);

    ++stats_.rounds;
    if (!token)
        ++stats_.rounds_forced;
    obs::count("serve.rounds");
    if (!token)
        obs::count("serve.rounds_forced");
    obs::gauge_set("serve.queue_depth", 0.0);
    if (obs::tracing()) {
        obs::TraceEvent event;
        event.time = t;
        event.kind = obs::EventKind::kServeRound;
        event.a = static_cast<std::int64_t>(batch);
        event.b = token ? 0 : 1;
        obs::emit(event);
    }
    fold_round_hash(t, batch, !token);
    if (replaying() && replay_round_next_ < replay_rounds_.size()) {
        // Rounds beyond the journaled commits are new work (their
        // commit record was lost to the torn tail); only journaled
        // rounds are verified.
        const auto &want = replay_rounds_[replay_round_next_];
        EF_FATAL_IF(want.first != stats_.rounds ||
                        want.second != hash_,
                    "recovery divergence at service round "
                        << stats_.rounds << ": journaled (round "
                        << want.first << ", hash " << std::hex
                        << want.second << ") vs replayed hash "
                        << hash_ << std::dec);
        ++replay_round_next_;
        obs::count("recover.replay_rounds");
    } else if (durable_ != nullptr) {
        journal_append(recover::RecordKind::kRoundCommit, /*sync=*/true,
                       stats_.rounds, t, hash_);
        // The cadence snapshot is deferred to the end of the public
        // entry point: a round committed mid-submit() would otherwise
        // truncate away the in-flight submission's journal record
        // before its effects reach the snapshotted state.
        if (stats_.rounds - snapshot_round_ >= snapshot_every_)
            snapshot_pending_ = true;
    }
    arm();
}

void
Service::maybe_snapshot()
{
    if (durable_ == nullptr || !snapshot_pending_)
        return;
    snapshot_pending_ = false;
    recover::Status st = write_snapshot();
    EF_FATAL_IF(!st.ok(), "durability: service snapshot failed: "
                              << st.to_string());
}

recover::Status
Service::write_snapshot()
{
    // Bases only: the service's split() tables are keyed and it has no
    // append() state, so a segment would be empty and its head a full
    // encode.
    std::uint64_t bytes = 0;
    recover::Status st = recover::write_checkpoint(
        *durable_, config_fingerprint(), *this, /*base=*/true, &bytes);
    if (!st.ok())
        return st;
    snapshot_round_ = stats_.rounds;
    obs::count("recover.snapshots");
    obs::count("recover.snapshot_bytes", bytes);
    obs::gauge_set("recover.snapshot_bytes_last",
                   static_cast<double>(bytes));
    return st;
}

void
Service::fold_round_hash(Time t, std::size_t batch, bool forced)
{
    WordHash h;
    h.u64(hash_);
    h.f64(t);
    h.u64(batch);
    h.u64(forced ? 1 : 0);
    recover::Hasher(h).put(*this);
    hash_ = h.digest();
}

template <class... T>
void
Service::journal_append(recover::RecordKind kind, bool sync,
                        const T &...fields)
{
    recover::Status st =
        durable_->append(kind, recover::encode(fields...));
    EF_FATAL_IF(!st.ok(), "durability: service journal append "
                          "failed: "
                              << st.to_string());
    if (sync) {
        st = durable_->commit();
        EF_FATAL_IF(!st.ok(), "durability: service journal commit "
                              "failed: "
                                  << st.to_string());
    }
    obs::count("recover.journal_records");
}

std::uint64_t
Service::config_fingerprint() const
{
    // Every knob that changes decisions is load-bearing.
    Fnv1a h;
    h.str("ef.serve.v1");
    h.i64(static_cast<std::int64_t>(config_.total_gpus));
    h.f64(config_.slot_seconds);
    h.i64(config_.max_slots);
    h.u64(static_cast<std::uint64_t>(config_.direction));
    h.f64(config_.admission_margin);
    h.f64(config_.overhead_allowance_s);
    h.u64(config_.queue_watermark);
    h.f64(config_.governor.rounds_per_second);
    h.f64(config_.governor.burst);
    h.f64(config_.governor.starvation_horizon_s);
    h.u64(config_.degrade_infeasible ? 1 : 0);
    h.u64(config_.max_active_best_effort);
    h.u64(config_.watchdog_budget);
    return h.digest();
}

recover::Status
Service::replay_tail(const recover::JournalContents &tail)
{
    replay_active_ = true;
    for (std::size_t i = 0; i < tail.records.size(); ++i) {
        const recover::JournalRecord &rec = tail.records[i];
        const auto bad = [&](const char *what) {
            replay_active_ = false;
            return recover::Status::error(
                recover::ErrorCode::kBadRecord, what,
                static_cast<std::int64_t>(i));
        };
        switch (rec.kind) {
          case recover::RecordKind::kSubmission: {
            Submission sub;
            if (!recover::decode(rec.body, sub).ok())
                return bad("malformed service submission record");
            // What submit() treats as a caller bug is, in a journal, a
            // bad record: checksums say nothing about its meaning.
            if (!(sub.spec.submit_time >= now_))
                return bad("service submission before the clock");
            if (pending_or_active(sub.spec.id))
                return bad("service submission of a pending or active id");
            submit(std::move(sub));
            break;
          }
          case recover::RecordKind::kAdvance: {
            double t = 0.0;
            bool finishing = false;
            if (!recover::decode(rec.body, t, finishing).ok())
                return bad("malformed service advance record");
            if (!(t >= now_))
                return bad("service advance before the clock");
            if (finishing)
                finish();
            else
                advance_internal(t);
            break;
          }
          case recover::RecordKind::kVerdict:
          case recover::RecordKind::kRoundCommit:
            break;  // pre-scanned into the replay cursors
          default:
            return bad("unknown service journal record kind");
        }
    }
    replay_active_ = false;
    if (replay_round_next_ < replay_rounds_.size() ||
        replay_verdict_next_ < replay_verdicts_.size()) {
        return recover::Status::error(
            recover::ErrorCode::kStateMismatch,
            "journal records effects the replay never reproduced");
    }
    return recover::Status{};
}

recover::Status
Service::bind_durability(const std::string &dir,
                         std::uint64_t snapshot_every, bool recover)
{
    EF_CHECK_MSG(durable_ == nullptr,
                 "service durability is already bound");
    EF_FATAL_IF(dir.empty(), "service durability needs a directory");
    EF_FATAL_IF(snapshot_every < 1,
                "service durability needs snapshot_every >= 1");
    snapshot_every_ = snapshot_every;
    std::uint64_t journal_valid_bytes = 0;
    recover::ChainTip tip;
    if (recover) {
        std::string snapshot;
        recover::JournalContents tail;
        recover::Status st =
            recover::DurableLog::load(dir, &snapshot, &tail);
        if (!st.ok())
            return st;
        journal_valid_bytes = tail.valid_bytes;
        if (!tail.tail.ok()) {
            EF_INFO("service recovery: discarding torn journal tail ("
                    << tail.tail.to_string() << ")");
        }
        st = recover::restore_checkpoint(snapshot, config_fingerprint(),
                                         *this, &tip);
        if (!st.ok())
            return st;
        // Pre-scan the tail: verdicts and round commits become the
        // verification cursors the replayed inputs must reproduce.
        replay_verdicts_.clear();
        replay_rounds_.clear();
        replay_verdict_next_ = 0;
        replay_round_next_ = 0;
        for (std::size_t i = 0; i < tail.records.size(); ++i) {
            const recover::JournalRecord &rec = tail.records[i];
            double at = 0.0;
            if (rec.kind == recover::RecordKind::kVerdict) {
                ReplayVerdict v;
                if (!recover::decode(rec.body, v.id, v.verdict, at).ok()) {
                    return recover::Status::error(
                        recover::ErrorCode::kBadRecord,
                        "malformed service verdict record",
                        static_cast<std::int64_t>(i));
                }
                replay_verdicts_.push_back(v);
            } else if (rec.kind == recover::RecordKind::kRoundCommit) {
                std::uint64_t round = 0;
                std::uint64_t hash = 0;
                if (!recover::decode(rec.body, round, at, hash).ok() ||
                    round != stats_.rounds + replay_rounds_.size() + 1) {
                    return recover::Status::error(
                        recover::ErrorCode::kBadRecord,
                        "malformed or non-contiguous service "
                        "round-commit record",
                        static_cast<std::int64_t>(i));
                }
                replay_rounds_.emplace_back(round, hash);
            }
        }
        if (obs::tracing()) {
            obs::TraceEvent event;
            event.time = now_;
            event.kind = obs::EventKind::kRecoveryBegin;
            event.a = static_cast<std::int64_t>(tail.records.size());
            event.b = static_cast<std::int64_t>(replay_rounds_.size());
            obs::emit(event);
        }
        st = replay_tail(tail);
        if (!st.ok())
            return st;
        if (obs::tracing()) {
            obs::TraceEvent event;
            event.time = now_;
            event.kind = obs::EventKind::kRecoveryEnd;
            event.a = static_cast<std::int64_t>(replay_round_next_);
            obs::emit(event);
        }
    }
    durable_ = std::make_unique<recover::DurableLog>();
    // On recovery, reopen the journal for *append* at its last valid
    // byte: the old base + full journal stays a complete recovery
    // image until the fresh base below subsumes it. A plain open
    // would leave a crash window in which the replayed tail was lost.
    recover::Status st =
        recover ? durable_->open_existing(dir, tip, journal_valid_bytes)
                : durable_->open(dir);
    if (!st.ok()) {
        durable_.reset();
        return st;
    }
    st = write_snapshot();
    if (!st.ok())
        durable_.reset();
    return st;
}

}  // namespace serve
}  // namespace ef
