/**
 * @file
 * Deterministic fault injection for the simulator and the service.
 *
 * A production ElasticFlow deployment survives lossy gRPC links,
 * straggling workers, single-GPU (ECC-style) faults, failed checkpoint
 * writes, and whole-server crashes (paper §4.4 "Node failures", §5).
 * The FaultInjector is the single source of such events: each fault
 * class draws from its own seeded Rng stream, so enabling one class
 * never perturbs the event sequence of another, and a run is a pure
 * function of (trace, config, seed). Faults come from two producers:
 *
 *  - per-class rates (MTBFs / probabilities) in FaultConfig, and
 *  - an explicit scripted fault trace (CSV), for tests and replay —
 *    scripted events fire at exact timestamps against exact targets.
 */
#ifndef EF_FAULT_FAULT_H_
#define EF_FAULT_FAULT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace ef {

/** The fault classes the injector can produce. */
enum class FaultType {
    kServerCrash,  ///< whole server down (§4.4 node failures)
    kGpuFault,     ///< one GPU fails; its server stays up
    kStraggler,    ///< a job's workers run slowed for a while
    kRpcDrop,      ///< a control-plane command delivery is lost
    kCkptFail,     ///< a checkpoint write fails (previous one survives)
    kArrivalStorm, ///< submission rate multiplied for a window (service
                   ///< mode overload; magnitude = rate multiplier)
    kSchedCrash,   ///< the scheduler process itself dies at a round
                   ///< boundary (crash-recovery testing; target = round
                   ///< index, -1 = first commit at/after `time`)
};

/** Last enumerator; snapshot decoders range-check against it. */
constexpr FaultType enum_last(FaultType) { return FaultType::kSchedCrash; }

std::string fault_type_name(FaultType type);
/** Inverse of fault_type_name; nullopt for an unknown name. */
std::optional<FaultType> fault_type_from_name(const std::string &name);

/** One scripted fault. */
struct FaultEvent
{
    Time time = 0.0;
    FaultType type = FaultType::kServerCrash;
    /**
     * Server index (kServerCrash), GPU id (kGpuFault), job id
     * (kStraggler / kRpcDrop / kCkptFail; -1 = first matching job), or
     * round-commit ordinal (kSchedCrash; -1 = first commit at/after
     * `time`). Ignored by kArrivalStorm (conventionally -1).
     */
    std::int64_t target = -1;
    /** Repair / straggle / storm window; 0 = use the class default. */
    Time duration_s = 0.0;
    /** Straggler slowdown factor, forced RPC-drop count, or
     *  arrival-rate multiplier (kArrivalStorm); 0 = default. */
    double magnitude = 0.0;

    /** Persistent state (recover/fields.h); journal only, so a hashed
     *  list of events hashes as its length. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(time, type, target, duration_s, magnitude);
    }
};

/** Per-class fault rates plus the scripted trace. A rate of 0 (or an
 *  empty script) disables the class entirely — no Rng draws happen. */
struct FaultConfig
{
    /** Master seed; every class stream is derived from it. */
    std::uint64_t seed = 1;

    // --- server crashes (§4.4 node failures) ---
    Time server_mtbf_s = 0.0;  ///< per-server MTBF; 0 = disabled
    Time server_repair_s = 2.0 * kHour;
    /** Explicit server-class seed; 0 = derive it from `seed`. */
    std::uint64_t server_seed = 0;

    /**
     * Jobs auto-checkpoint this often; every eviction (server crash,
     * GPU fault) rolls its victim back to the last checkpoint, in
     * addition to taking its GPUs. Read by the simulator whether or
     * not any class is enabled.
     */
    Time checkpoint_interval_s = 1800.0;

    // --- single-GPU faults ---
    Time gpu_mtbf_s = 0.0;  ///< per-GPU MTBF; 0 = disabled
    Time gpu_repair_s = kHour;

    // --- unreliable RPC delivery ---
    double rpc_drop_prob = 0.0;      ///< per-attempt loss probability
    double rpc_delay_prob = 0.0;     ///< chance of a slow delivery
    Time rpc_delay_mean_s = 0.5;
    Time rpc_backoff_base_s = 0.2;   ///< first retry backoff
    Time rpc_backoff_cap_s = 5.0;    ///< bounded exponential cap
    int rpc_max_retries = 5;         ///< give up after this many

    // --- worker stragglers ---
    double straggler_prob = 0.0;     ///< per-(re)launch probability
    double straggler_slowdown = 2.0; ///< iteration-time multiplier
    Time straggler_duration_s = 600.0;

    // --- checkpoint-write failures ---
    double ckpt_failure_prob = 0.0;  ///< per-checkpoint probability

    // --- scheduler (control-plane) crashes ---
    /**
     * Per-round-commit probability that the scheduler process dies at
     * the commit point (crash-recovery soak testing). Draws from its
     * own stream that is deliberately NOT part of the state hash:
     * a crash+recover run must hash identically to an uninterrupted
     * one, so crash arrivals may never perturb hashed state.
     */
    double sched_crash_prob = 0.0;

    /** Scripted faults, applied in addition to the rates. */
    std::vector<FaultEvent> script;

    /** Whether any class can ever fire. */
    bool any() const;
};

/**
 * Draws fault events from per-class independent Rng streams and hands
 * out scripted events. Owned by whoever runs the clock: the simulator,
 * the service or a test harness.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig config);

    const FaultConfig &config() const { return config_; }

    // --- server crashes -------------------------------------------------
    bool server_crashes_enabled() const
    {
        return config_.server_mtbf_s > 0.0;
    }
    /** Exponential time-to-failure of one server. */
    Time server_crash_delay();
    Time server_repair_s() const { return config_.server_repair_s; }

    // --- single-GPU faults ----------------------------------------------
    bool gpu_faults_enabled() const { return config_.gpu_mtbf_s > 0.0; }
    /** Time until the next GPU fault anywhere in the cluster. */
    Time gpu_fault_delay(GpuCount total_gpus);
    /** Which GPU the next fault hits. */
    GpuCount gpu_fault_target(GpuCount total_gpus);
    Time gpu_repair_s() const { return config_.gpu_repair_s; }

    // --- unreliable RPC delivery ----------------------------------------
    /** Whether rate-based loss is on (scripted drops fire regardless). */
    bool rpc_drops_enabled() const { return config_.rpc_drop_prob > 0.0; }
    /** Was this delivery attempt lost? No draw when the rate is 0. */
    bool rpc_attempt_lost();
    /** Extra delivery latency (0 unless the delay class fires). */
    Time rpc_delay();
    /** Bounded exponential backoff before retry @p attempt (1-based). */
    Time rpc_backoff(int attempt) const;

    // --- stragglers -----------------------------------------------------
    bool stragglers_enabled() const
    {
        return config_.straggler_prob > 0.0;
    }
    /** Does this (re)launch come up straggling? */
    bool straggler_starts();
    double straggler_slowdown() const
    {
        return config_.straggler_slowdown;
    }
    Time straggler_duration_s() const
    {
        return config_.straggler_duration_s;
    }

    // --- checkpoint-write failures --------------------------------------
    /**
     * Does the checkpoint @p job writes at @p now fail? Consumes at
     * most one armed scripted kCkptFail entry; otherwise draws the
     * rate (no draw when the rate is 0).
     */
    bool checkpoint_write_fails(JobId job, Time now);

    // --- scripted faults ------------------------------------------------
    /**
     * Cluster-level scripted events (server crashes, GPU faults,
     * stragglers) for the caller's event queue. RPC drops and
     * checkpoint failures are not queueable: they arm and fire when
     * the matching command/checkpoint happens.
     */
    const std::vector<FaultEvent> &queueable_script_events() const
    {
        return queueable_;
    }

    /**
     * Forced delivery losses armed for a command to @p job issued at
     * @p now: consumes every armed kRpcDrop whose time has come and
     * returns the total forced-loss count (magnitude, default 1 each).
     */
    int take_scripted_rpc_drops(JobId job, Time now);

    // --- scheduler crashes ----------------------------------------------
    bool sched_crashes_enabled() const
    {
        return config_.sched_crash_prob > 0.0 || !armed_sched_.empty();
    }
    /**
     * Does the scheduler die at this round commit? Rate-based only;
     * scripted crashes are consumed by the simulator through
     * sched_crash_events() and its journaled cursor. No draw when the
     * rate is 0.
     */
    bool sched_crash_fires();
    /**
     * Scripted scheduler crashes, time-sorted. The caller owns the
     * consumption cursor (it must survive recovery, so it lives in the
     * round-commit journal records, not here).
     */
    const std::vector<FaultEvent> &sched_crash_events() const
    {
        return armed_sched_;
    }

    /**
     * Scripted arrival storms, time-sorted. A storm multiplies the
     * submission rate by its magnitude (default 2) over
     * [time, time + duration_s). Consumed by submission front ends
     * (ef::serve streams); never queued as simulator events.
     */
    const std::vector<FaultEvent> &arrival_storm_events() const
    {
        return storms_;
    }

    /**
     * The arrival-rate multiplier in effect at @p now: the product of
     * the magnitudes of every storm window covering @p now (overlapping
     * storms compound), or 1 when none does.
     */
    double arrival_rate_multiplier(Time now) const;

    /**
     * Persistent state (recover/fields.h). Hashed: every class
     * stream's cursor plus the length of each scripted-event list, so
     * two runs agree only if their fault streams advanced in lockstep.
     * The sched-crash stream is journaled but never hashed: a
     * crash+recover run must hash identically to an uninterrupted one,
     * so crash arrivals may never perturb hashed state. armed_sched_
     * is transient — its consumption is pinned by the simulator's
     * journaled crash cursor.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(server_rng_, gpu_rng_, rpc_rng_, straggler_rng_, ckpt_rng_);
        v.journal(sched_rng_);
        v(queueable_, armed_rpc_, armed_ckpt_, storms_);
    }

  private:
    FaultConfig config_;
    Rng server_rng_;
    Rng gpu_rng_;
    Rng rpc_rng_;
    Rng straggler_rng_;
    Rng ckpt_rng_;
    /** Meta stream: outside the state hash by design. */
    Rng sched_rng_;
    std::vector<FaultEvent> queueable_;
    std::vector<FaultEvent> armed_rpc_;
    std::vector<FaultEvent> armed_ckpt_;
    std::vector<FaultEvent> storms_;
    std::vector<FaultEvent> armed_sched_;
};

/** Why a fault script could not be loaded. */
struct FaultScriptError
{
    /** 1-based CSV line at fault; 0 when the file as a whole is. */
    int line = 0;
    std::string message;

    /** "fault script line 3: ..." (just the message for whole-file
     *  errors). */
    std::string to_string() const;
};

/**
 * Parse a scripted fault trace into @p out. CSV columns:
 * time,type,target and optionally duration,magnitude. Types:
 * server-crash, gpu-fault, straggler, rpc-drop, ckpt-fail,
 * arrival-storm, sched-crash. A missing column, a row with the wrong
 * field count, a non-number, a negative time/duration/magnitude or an
 * unknown type is returned as a line-numbered FaultScriptError (the
 * first one found); @p out is then left untouched.
 */
std::optional<FaultScriptError>
parse_fault_script(const std::string &text, std::vector<FaultEvent> *out);

/** Read and parse a scripted fault trace file; an unreadable file is a
 *  whole-file FaultScriptError. */
std::optional<FaultScriptError>
load_fault_script(const std::string &path, std::vector<FaultEvent> *out);

/**
 * Check the targets of @p script, as parse_fault_script() returned it
 * (event k comes from line k + 2), against the run it drives: a
 * server-crash must name one of @p servers servers, a gpu-fault one of
 * @p gpus GPUs, and a straggler a job in @p jobs. The first target out
 * of range is returned, line-numbered.
 */
std::optional<FaultScriptError>
check_fault_targets(const std::vector<FaultEvent> &script,
                    std::int64_t servers, std::int64_t gpus,
                    std::vector<JobId> jobs);

}  // namespace ef

#endif  // EF_FAULT_FAULT_H_
