/**
 * @file
 * Determinism auditor tests: the FNV-1a state hash chained over every
 * replan must be bit-identical across repeated runs of the same
 * configuration, sensitive to any configuration change, and stable
 * against the pinned baseline below (which detects accidental changes
 * to scheduler decisions, event ordering, or RNG consumption).
 */
#include <gtest/gtest.h>

#include <cstdint>

#include "common/hash.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

RunResult
run_once(const std::string &scheduler_name, std::uint64_t seed,
         const SimConfig &config = SimConfig{})
{
    TraceGenConfig gen = testbed_small_preset();
    gen.seed = seed;
    Trace trace = TraceGenerator::generate(gen);
    auto scheduler = make_scheduler(scheduler_name);
    Simulator sim(trace, scheduler.get(), config);
    return sim.run();
}

TEST(StateHash, SampledAtLeastOncePerReplan)
{
    RunResult result = run_once("elasticflow", 42);
    EXPECT_GT(result.state_hash_samples, 0u);
    EXPECT_NE(result.state_hash, 0u);
    // One audit per executed or elided replan, plus the terminal one
    // (coalesced requests collapse into the replan that serves them).
    EXPECT_EQ(static_cast<int>(result.state_hash_samples),
              result.replans_attempted - result.replans_coalesced + 1);
}

TEST(StateHash, DoubleRunIsBitIdentical)
{
    for (const std::string &name : all_scheduler_names()) {
        SCOPED_TRACE(name);
        RunResult a = run_once(name, 42);
        RunResult b = run_once(name, 42);
        EXPECT_EQ(a.state_hash, b.state_hash);
        EXPECT_EQ(a.state_hash_samples, b.state_hash_samples);
    }
}

TEST(StateHash, DoubleRunWithFaultsIsBitIdentical)
{
    SimConfig config;
    config.faults.seed = 7;
    config.faults.gpu_mtbf_s = 6.0 * kHour;
    config.faults.rpc_drop_prob = 0.01;
    config.faults.straggler_prob = 0.05;
    RunResult a = run_once("elasticflow", 42, config);
    RunResult b = run_once("elasticflow", 42, config);
    EXPECT_EQ(a.state_hash, b.state_hash);
    EXPECT_EQ(a.state_hash_samples, b.state_hash_samples);
}

TEST(StateHash, DistinguishesSchedulersSeedsAndFaults)
{
    const RunResult base = run_once("elasticflow", 42);
    EXPECT_NE(base.state_hash, run_once("edf", 42).state_hash);
    EXPECT_NE(base.state_hash, run_once("elasticflow", 43).state_hash);

    SimConfig faulty;
    faulty.faults.seed = 7;
    faulty.faults.gpu_mtbf_s = 6.0 * kHour;
    EXPECT_NE(base.state_hash,
              run_once("elasticflow", 42, faulty).state_hash);
}

/** The canonical batch run: elasticflow on the small testbed trace. */
RunResult
canonical()
{
    return run_once("elasticflow", 42);
}

/** A churn run with every optional hashed subsystem on: background
 *  defrag (budgeted), GPU faults and RPC drops. */
RunResult
churn_with_faults_and_defrag()
{
    Trace trace = TraceGenerator::generate(churn_preset());
    SimConfig config;
    config.defrag.enabled = true;
    config.defrag.budget_units_per_round = 16.0;
    config.faults.seed = 7;
    config.faults.gpu_mtbf_s = 2.0 * kDay;
    config.faults.rpc_drop_prob = 0.02;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    return sim.run();
}

/** The simulator's streaming-admission (service) mode. */
RunResult
simulator_service_mode()
{
    SimConfig config;
    config.service.enabled = true;
    config.service.queue_watermark = 8;
    config.service.degrade_infeasible = true;
    return run_once("elasticflow", 42, config);
}

/** A multi-rack cluster (8 racks of 8 servers) with server failures:
 *  repacks run with servers down, so they pin the down-server sentinel
 *  bins and matching across more than two racks. */
RunResult
multi_rack_server_failures()
{
    TraceGenConfig gen = testbed_large_preset();
    gen.topology = TopologySpec::with_total_gpus(512);
    Trace trace = TraceGenerator::generate(gen);
    SimConfig config;
    config.failures.enabled = true;
    config.failures.server_mtbf_s = 2.0 * kDay;
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get(), config);
    return sim.run();
}

/**
 * Digest of what a run decided, independent of how the simulator
 * represents its state: every placement change in the allocation log,
 * then each job's outcome row in submission order.
 */
std::uint64_t
decision_digest(const RunResult &result)
{
    Fnv1a h;
    h.u64(result.allocation_log.size());
    for (const AllocationEvent &ev : result.allocation_log) {
        h.f64(ev.time);
        h.i64(ev.job);
        h.u64(ev.gpus.size());
        for (GpuCount g : ev.gpus)
            h.i64(g);
    }
    h.u64(result.jobs.size());
    for (const JobOutcome &job : result.jobs) {
        h.i64(job.spec.id);
        h.byte(job.admitted ? 1 : 0);
        h.byte(job.finished ? 1 : 0);
        h.f64(job.finish_time);
        h.f64(job.first_run_time);
        h.f64(job.gpu_seconds);
        h.i64(job.scaling_events);
        h.i64(job.migrations);
        h.i64(job.failures_suffered);
        h.byte(job.demoted ? 1 : 0);
        h.byte(job.spec.is_best_effort() ? 1 : 0);
    }
    return h.digest();
}

/** serve::Service over a fixed synthetic stream with a scripted
 *  arrival storm (and RPC loss) through its fault injector. */
std::uint64_t
service_with_arrival_storm()
{
    FaultConfig faults;
    faults.seed = 11;
    faults.rpc_drop_prob = 0.02;
    faults.script.push_back(
        {2000.0, FaultType::kArrivalStorm, -1, 1500.0, 8.0});
    FaultInjector injector(faults);

    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(16);
    stream_config.arrival_rate = 0.02;
    stream_config.seed = 5;
    serve::SyntheticStream stream(stream_config, &injector);

    serve::ServiceConfig config;
    config.total_gpus = 16;
    config.queue_watermark = 16;
    config.governor.rounds_per_second = 0.01;
    config.governor.starvation_horizon_s = 120.0;
    config.degrade_infeasible = true;
    serve::Service service(config, &injector);
    for (int i = 0; i < 400; ++i)
        service.submit(stream.next());
    service.finish();
    return service.state_hash();
}

/**
 * Pinned digests. A change here means scheduler decisions, event
 * ordering, job-state evolution, or RNG draw counts changed — which is
 * fine when intended, but must be a conscious decision: re-pin the
 * constant from this test's failure message and say why in the
 * commit. Beyond the canonical batch run, the table covers every
 * optional hashed subsystem (defrag, fault streams, service queue and
 * governor, serve::Service's per-round fold).
 *
 * The three simulator pins were last re-pinned when the state hash
 * became incremental (DESIGN.md §7): frozen jobs enter as a sealed sum,
 * the GPU tables as kept digests, and an unplaced job's last_update no
 * longer follows the clock. PinnedDecisions below did not move.
 */
TEST(StateHash, PinnedBaseline)
{
    struct Pin
    {
        const char *name;
        std::uint64_t (*run)();
        std::uint64_t want;
    };
    const Pin pins[] = {
        {"canonical elasticflow", [] { return canonical().state_hash; },
         UINT64_C(0xecfd08d87955a4fa)},
        {"churn + defrag + GPU faults + RPC drops",
         [] { return churn_with_faults_and_defrag().state_hash; },
         UINT64_C(0x6597f298edc0e4b9)},
        {"simulator service mode",
         [] { return simulator_service_mode().state_hash; },
         UINT64_C(0x3cdab493bfcd7216)},
        {"serve::Service with arrival storm", service_with_arrival_storm,
         UINT64_C(0xc8b3864ad64ec163)},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        EXPECT_EQ(pin.run(), pin.want) << std::hex << "0x" << pin.run();
    }
}

/**
 * Forwarding scheduler that holds the simulator's incremental
 * state_hash() to the full recompute at every verdict and every
 * allocate(): the sealed sum, the active-job walk and the placement
 * digests must agree with hashing every job and GPU row from scratch.
 */
class OracleScheduler : public Scheduler
{
  public:
    explicit OracleScheduler(std::unique_ptr<Scheduler> inner)
        : inner_(std::move(inner))
    {}

    void
    attach(const Simulator *sim)
    {
        sim_ = sim;
        inner_->bind(sim);
    }

    std::string name() const override { return inner_->name(); }

    bool
    admit(const JobSpec &job) override
    {
        check();
        return inner_->admit(job);
    }

    SchedulerDecision
    allocate() override
    {
        check();
        return inner_->allocate();
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

    void
    check()
    {
        ++checks;
        const std::uint64_t incremental = sim_->state_hash();
        const std::uint64_t full = sim_->recomputed_state_hash();
        if (incremental != full)
            ++mismatches;
    }

    int checks = 0;
    int mismatches = 0;

  private:
    std::unique_ptr<Scheduler> inner_;
    const Simulator *sim_ = nullptr;
};

/** Run @p scheduler_name under @p config with the oracle attached,
 *  and check the terminal state too. */
void
run_with_oracle(const std::string &scheduler_name, const Trace &trace,
                const SimConfig &config)
{
    OracleScheduler oracle(make_scheduler(scheduler_name));
    Simulator sim(trace, &oracle, config);
    oracle.attach(&sim);
    sim.run();
    oracle.check();
    EXPECT_GT(oracle.checks, 1);
    EXPECT_EQ(oracle.mismatches, 0);
}

TEST(StateHash, IncrementalEqualsRecomputeAtEverySample)
{
    SimConfig faults;
    faults.failures.enabled = true;
    faults.failures.server_mtbf_s = 2.0 * kDay;
    faults.failures.checkpoint_interval_s = 900.0;
    faults.faults.seed = 7;
    faults.faults.gpu_mtbf_s = 6.0 * kHour;
    faults.faults.rpc_drop_prob = 0.02;
    faults.faults.straggler_prob = 0.1;
    faults.faults.ckpt_failure_prob = 0.05;
    SimConfig defrag;
    defrag.defrag.enabled = true;
    defrag.defrag.budget_units_per_round = 16.0;
    defrag.faults.seed = 3;
    defrag.faults.gpu_mtbf_s = 2.0 * kDay;
    SimConfig service;
    service.service.enabled = true;
    service.service.queue_watermark = 4;
    service.service.degrade_infeasible = true;

    TraceGenConfig gen = testbed_small_preset();
    gen.seed = 42;
    const Trace small = TraceGenerator::generate(gen);
    TraceGenConfig churn = churn_preset();
    churn.num_jobs = 60;
    const Trace churn_trace = TraceGenerator::generate(churn);
    const struct
    {
        const char *name;
        SimConfig config;
        const Trace &trace;
    } runs[] = {{"plain", SimConfig{}, small},
                {"faults", faults, small},
                {"defrag", defrag, churn_trace},
                {"service", service, small}};
    for (const std::string &name : all_scheduler_names()) {
        for (const auto &run : runs) {
            SCOPED_TRACE(name + " / " + run.name);
            run_with_oracle(name, run.trace, run.config);
        }
    }
}

/**
 * Pinned decisions: the allocation log and per-job outcomes of the
 * three simulator runs above, plus a multi-rack run with server
 * failures, the only pin whose repacks run with servers down. Unlike
 * the state-hash pins, these do not depend on how the hash composes the
 * simulator's state, so they must only move when a decision does.
 */
TEST(StateHash, PinnedDecisions)
{
    struct Pin
    {
        const char *name;
        RunResult (*run)();
        std::uint64_t want;
    };
    const Pin pins[] = {
        {"canonical elasticflow", canonical, UINT64_C(0xaa6772e4f5ec409b)},
        {"churn + defrag + GPU faults + RPC drops",
         churn_with_faults_and_defrag, UINT64_C(0x60ad6cce35888f5e)},
        {"simulator service mode", simulator_service_mode,
         UINT64_C(0xe2f0fcd0e9a73ef6)},
        {"multi-rack server failures", multi_rack_server_failures,
         UINT64_C(0x87c6c9143db0709b)},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.name);
        const std::uint64_t got = decision_digest(pin.run());
        EXPECT_EQ(got, pin.want) << std::hex << "0x" << got;
    }
}

TEST(Fnv1a, KnownVectorsAndOrderSensitivity)
{
    // Empty input must yield the FNV-1a offset basis.
    EXPECT_EQ(Fnv1a().digest(), UINT64_C(0xcbf29ce484222325));
    // Classic known vector: "a" -> 0xaf63dc4c8601ec8c.
    Fnv1a a;
    a.byte(static_cast<unsigned char>('a'));
    EXPECT_EQ(a.digest(), UINT64_C(0xaf63dc4c8601ec8c));
    // Order matters.
    Fnv1a ab, ba;
    ab.u64(1);
    ab.u64(2);
    ba.u64(2);
    ba.u64(1);
    EXPECT_NE(ab.digest(), ba.digest());
    // f64 hashes the bit pattern: +0.0 and -0.0 differ.
    Fnv1a pos, neg;
    pos.f64(0.0);
    neg.f64(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
    // str() is length-prefixed, so ("ab","c") != ("a","bc").
    Fnv1a s1, s2;
    s1.str("ab");
    s1.str("c");
    s2.str("a");
    s2.str("bc");
    EXPECT_NE(s1.digest(), s2.digest());
}

}  // namespace
}  // namespace ef
