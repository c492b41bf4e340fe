/**
 * @file
 * ef::serve tests: replan-cadence governor math, backpressure sheds at
 * the queue watermark, starvation bound, batching of arrivals into few
 * rounds, degrading infeasible SLO work to best effort, watchdog
 * fallback, and the determinism contract (same stream + config twice
 * produces identical decision sequences and state hashes), including
 * under scripted arrival storms and RPC drops.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "fault/fault.h"
#include "recover/fields.h"
#include "serve/governor.h"
#include "serve/service.h"
#include "serve/stream.h"

namespace ef {
namespace {

serve::StreamConfig
small_stream(double rate, std::uint64_t seed = 7)
{
    serve::StreamConfig config;
    config.topology = TopologySpec::with_total_gpus(16);
    config.arrival_rate = rate;
    config.seed = seed;
    return config;
}

serve::ServiceConfig
small_service()
{
    serve::ServiceConfig config;
    config.total_gpus = 16;
    return config;
}

TEST(ReplanGovernor, BucketStartsFullAndRefillsAtTheRate)
{
    serve::GovernorConfig config;
    config.rounds_per_second = 0.5;
    config.burst = 2.0;
    serve::ReplanGovernor governor(config);

    EXPECT_DOUBLE_EQ(governor.tokens_at(0.0), 2.0);
    EXPECT_TRUE(governor.try_acquire(0.0));
    EXPECT_TRUE(governor.try_acquire(0.0));
    EXPECT_FALSE(governor.try_acquire(0.0));
    // Empty bucket at rate 0.5: one token is 2 seconds away.
    EXPECT_DOUBLE_EQ(governor.next_eligible(0.0), 2.0);
    EXPECT_FALSE(governor.try_acquire(1.0));
    EXPECT_TRUE(governor.try_acquire(2.0));
    // Refill clamps at the burst size.
    EXPECT_DOUBLE_EQ(governor.tokens_at(1000.0), 2.0);
}

TEST(ReplanGovernor, DigestTracksConsumption)
{
    serve::GovernorConfig config;
    serve::ReplanGovernor a(config);
    serve::ReplanGovernor b(config);
    EXPECT_EQ(recover::digest(a), recover::digest(b));
    ASSERT_TRUE(a.try_acquire(1.0));
    EXPECT_NE(recover::digest(a), recover::digest(b));
    ASSERT_TRUE(b.try_acquire(1.0));
    EXPECT_EQ(recover::digest(a), recover::digest(b));
}

TEST(Service, ShedsSynchronouslyAtTheWatermark)
{
    serve::ServiceConfig config = small_service();
    config.queue_watermark = 2;
    // One token total: the first submission's round consumes it, the
    // rest must queue (the horizon is far away).
    config.governor.rounds_per_second = 1e-4;
    config.governor.burst = 1.0;
    config.governor.starvation_horizon_s = 1e6;
    serve::Service service(config);

    serve::SyntheticStream stream(small_stream(0.01));
    std::vector<serve::Decision> decisions;
    service.set_decision_callback(
        [&](const serve::Decision &d) { decisions.push_back(d); });

    for (int i = 0; i < 4; ++i) {
        serve::Submission sub = stream.next();
        sub.spec.submit_time = 0.0;  // all at once: a burst
        service.submit(std::move(sub));
    }
    // Round at t=0 decided #0; #1 and #2 queued; #3 hit the watermark.
    EXPECT_EQ(service.stats().shed_queue_full, 1u);
    EXPECT_EQ(service.queue_depth(), 2u);
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_EQ(decisions[1].verdict, serve::ShedVerdict::kShedQueueFull);
    EXPECT_EQ(decisions[1].decide_time, 0.0);  // synchronous verdict

    service.finish();
    EXPECT_EQ(service.stats().submitted, 4u);
    EXPECT_EQ(service.stats().max_queue_depth, 2u);
    EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(Service, NoSubmissionWaitsPastTheStarvationHorizon)
{
    serve::ServiceConfig config = small_service();
    config.queue_watermark = 64;
    // Tokens are essentially never refilled: after the initial burst,
    // every round must be forced by the horizon.
    config.governor.rounds_per_second = 1e-6;
    config.governor.burst = 1.0;
    config.governor.starvation_horizon_s = 50.0;
    serve::Service service(config);

    std::vector<serve::Decision> decisions;
    service.set_decision_callback(
        [&](const serve::Decision &d) { decisions.push_back(d); });

    serve::SyntheticStream stream(small_stream(0.2));
    for (int i = 0; i < 200; ++i)
        service.submit(stream.next());
    service.advance_to(service.now() + 1000.0);
    service.finish();

    ASSERT_EQ(decisions.size(), 200u);
    for (const serve::Decision &d : decisions) {
        EXPECT_LE(d.decide_time - d.submit_time,
                  config.governor.starvation_horizon_s + 1e-9)
            << "job " << d.id << " starved";
    }
    EXPECT_GT(service.stats().rounds_forced, 0u);
}

TEST(Service, GovernorBatchesArrivalsIntoFewRounds)
{
    serve::ServiceConfig config = small_service();
    config.queue_watermark = 64;
    config.governor.rounds_per_second = 0.001;  // 1 per 1000 s
    config.governor.burst = 1.0;
    config.governor.starvation_horizon_s = 4000.0;
    serve::Service service(config);

    // 10 arrivals 100 s apart: without batching that is 10 planning
    // rounds; the governor must merge them into far fewer. Deadlines
    // are loose enough that every job stays feasible while it queues.
    serve::SyntheticStream stream(small_stream(0.01));
    for (int i = 0; i < 10; ++i) {
        serve::Submission sub = stream.next();
        sub.spec.kind = JobKind::kSlo;
        sub.spec.submit_time = 100.0 * static_cast<double>(i);
        sub.spec.deadline = sub.spec.submit_time + 1e6;
        service.submit(std::move(sub));
    }
    service.advance_to(5000.0);
    service.finish();
    EXPECT_GT(service.stats().rounds, 0u);
    EXPECT_LT(service.stats().rounds, 5u);
    EXPECT_EQ(service.stats().rounds_forced, 0u);
    EXPECT_EQ(service.stats().shed_queue_full, 0u);
    EXPECT_EQ(service.stats().admitted, 10u);
}

TEST(Service, DegradeKeepsInfeasibleWorkAsBestEffort)
{
    // A deadline nothing can meet: admission must refuse the guarantee.
    serve::SyntheticStream stream(small_stream(0.01));
    serve::Submission doomed = stream.next();
    doomed.spec.kind = JobKind::kSlo;
    doomed.spec.deadline = doomed.spec.submit_time + 1.0;
    serve::Submission later = stream.next();
    later.spec.submit_time = 1e7;

    for (bool degrade : {false, true}) {
        SCOPED_TRACE(degrade ? "degrade" : "strict");
        serve::ServiceConfig config = small_service();
        config.degrade_infeasible = degrade;
        serve::Service service(config);
        std::vector<serve::Decision> decisions;
        service.set_decision_callback(
            [&](const serve::Decision &d) { decisions.push_back(d); });
        service.submit(doomed);
        service.finish();
        ASSERT_EQ(decisions.size(), 1u);
        EXPECT_EQ(decisions[0].verdict,
                  degrade ? serve::ShedVerdict::kDegraded
                          : serve::ShedVerdict::kShedInfeasible);
        EXPECT_EQ(service.stats().degraded, degrade ? 1u : 0u);
        EXPECT_EQ(service.active_jobs(), degrade ? 1u : 0u);
        // The kept work runs to completion without a deadline to miss:
        // the next round, long after, retires it.
        service.submit(later);
        service.finish();
        EXPECT_EQ(service.stats().finished, degrade ? 1u : 0u);
        EXPECT_EQ(service.stats().deadline_misses, 0u);
    }
}

TEST(Service, WatchdogAbandonsOverBudgetRoundsAndRetries)
{
    serve::ServiceConfig config = small_service();
    // Any real refresh blows a one-unit budget; the retry must then
    // run unmetered and still decide everything.
    config.watchdog_budget = 1;
    serve::Service service(config);

    serve::SyntheticStream stream(small_stream(0.02));
    for (int i = 0; i < 50; ++i)
        service.submit(stream.next());
    service.finish();

    EXPECT_GT(service.stats().replan_timeouts, 0u);
    EXPECT_EQ(service.stats().submitted, 50u);
    EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(Service, WatchdogRetryDoesNotReapplyFluidProgress)
{
    // An abandoned round has already retired fluid progress over
    // [last_round_, t]; the escalated retry at the same t must not
    // apply the interval again. If it did, jobs would finish early and
    // the retry would plan against understated remaining work, so a
    // metered run must make exactly the same decisions and retire
    // exactly the same completions as an unmetered run of the same
    // stream. (state_hash folds replan_timeouts, so it legitimately
    // differs between the two runs and is not compared.)
    auto run = [](std::uint64_t budget, serve::ServiceStats *stats,
                  std::vector<serve::Decision> *decisions) {
        serve::ServiceConfig config = small_service();
        config.watchdog_budget = budget;
        serve::Service service(config);
        service.set_decision_callback([&](const serve::Decision &d) {
            decisions->push_back(d);
        });
        serve::SyntheticStream stream(small_stream(0.02, 13));
        for (int i = 0; i < 80; ++i)
            service.submit(stream.next());
        service.finish();
        *stats = service.stats();
    };

    serve::ServiceStats metered, unmetered;
    std::vector<serve::Decision> with_watchdog, without_watchdog;
    run(1, &metered, &with_watchdog);
    run(0, &unmetered, &without_watchdog);

    ASSERT_GT(metered.replan_timeouts, 0u);
    EXPECT_EQ(unmetered.replan_timeouts, 0u);
    // The comparison is only meaningful if completions were retired
    // while the watchdog was firing.
    ASSERT_GT(unmetered.finished, 0u);
    EXPECT_EQ(metered.finished, unmetered.finished);
    EXPECT_EQ(metered.deadline_misses, unmetered.deadline_misses);
    EXPECT_EQ(metered.demotions, unmetered.demotions);
    EXPECT_EQ(metered.admitted, unmetered.admitted);
    ASSERT_EQ(with_watchdog.size(), without_watchdog.size());
    for (std::size_t i = 0; i < with_watchdog.size(); ++i) {
        EXPECT_EQ(with_watchdog[i].id, without_watchdog[i].id);
        EXPECT_EQ(with_watchdog[i].verdict, without_watchdog[i].verdict);
        EXPECT_EQ(with_watchdog[i].decide_time,
                  without_watchdog[i].decide_time);
    }
}

TEST(Service, DoubleRunIsByteIdentical)
{
    auto run = [](std::vector<serve::Decision> *decisions) {
        serve::ServiceConfig config = small_service();
        config.queue_watermark = 8;
        config.governor.rounds_per_second = 0.05;
        config.degrade_infeasible = true;
        serve::Service service(config);
        service.set_decision_callback([&](const serve::Decision &d) {
            decisions->push_back(d);
        });
        serve::SyntheticStream stream(small_stream(0.5, 21));
        for (int i = 0; i < 400; ++i)
            service.submit(stream.next());
        service.finish();
        return service.state_hash();
    };

    std::vector<serve::Decision> first, second;
    const std::uint64_t hash1 = run(&first);
    const std::uint64_t hash2 = run(&second);
    EXPECT_EQ(hash1, hash2);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].id, second[i].id);
        EXPECT_EQ(first[i].verdict, second[i].verdict);
        EXPECT_EQ(first[i].submit_time, second[i].submit_time);
        EXPECT_EQ(first[i].decide_time, second[i].decide_time);
    }
}

TEST(Service, RpcDropsLoseSubmissionsDeterministically)
{
    auto run = [](std::uint64_t *dropped) {
        FaultConfig fault_config;
        fault_config.rpc_drop_prob = 0.5;
        fault_config.seed = 3;
        FaultInjector faults(fault_config);
        serve::Service service(small_service(), &faults);
        serve::SyntheticStream stream(small_stream(0.05));
        for (int i = 0; i < 100; ++i)
            service.submit(stream.next());
        service.finish();
        *dropped = service.stats().rpc_dropped;
        EXPECT_EQ(service.stats().submitted + *dropped, 100u);
        return service.state_hash();
    };
    std::uint64_t dropped1 = 0, dropped2 = 0;
    const std::uint64_t hash1 = run(&dropped1);
    const std::uint64_t hash2 = run(&dropped2);
    EXPECT_GT(dropped1, 0u);
    EXPECT_EQ(dropped1, dropped2);
    EXPECT_EQ(hash1, hash2);
}

/** Two submissions of each kind that share an id, all at t = 0. */
std::vector<serve::Submission>
duplicate_ids()
{
    serve::SyntheticStream stream(small_stream(0.01));
    serve::Submission be = stream.next();
    be.spec.id = 1;
    be.spec.kind = JobKind::kBestEffort;
    be.spec.deadline = kTimeInfinity;
    be.spec.submit_time = 0.0;
    serve::Submission slo = stream.next();
    slo.spec.id = 2;
    slo.spec.kind = JobKind::kSlo;
    slo.spec.deadline = 1e6;
    slo.spec.iterations = 1000;
    slo.spec.submit_time = 0.0;
    return {be, be, slo, slo};
}

// An id that is already pending or active would get a second verdict
// and, at best, no row of its own: it is a caller bug, fatal like an
// out-of-order submission. Once the first job retired, the id is free.
TEST(ServiceDeathTest, DuplicateIdIsFatal)
{
    const std::vector<serve::Submission> subs = duplicate_ids();
    // Pending: both copies are queued for the same round.
    EXPECT_DEATH(
        {
            serve::Service service(small_service());
            service.submit(subs[0]);
            service.submit(subs[1]);
        },
        "already pending or active");
    // Active: the SLO copy arrives after the first one was admitted.
    EXPECT_DEATH(
        {
            serve::Service service(small_service());
            service.submit(subs[2]);
            service.finish();
            service.submit(subs[3]);
        },
        "already pending or active");

    // Once a round retired the first job, its id is free again.
    serve::Service service(small_service());
    serve::Submission be = subs[0];
    serve::Submission slo = subs[2];
    service.submit(slo);
    service.finish();
    be.spec.submit_time = slo.spec.submit_time = 1e7;
    slo.spec.deadline = 2e7;
    service.submit(be);
    service.advance_to(1e7);
    ASSERT_EQ(service.stats().finished, 1u);
    service.submit(slo);
    service.finish();
    EXPECT_EQ(service.stats().admitted, 2u);
    EXPECT_EQ(service.active_jobs(), 2u);
}

TEST(SyntheticStream, IsAPureFunctionOfItsSeed)
{
    serve::SyntheticStream a(small_stream(0.1, 5));
    serve::SyntheticStream b(small_stream(0.1, 5));
    serve::SyntheticStream c(small_stream(0.1, 6));
    bool any_difference = false;
    for (int i = 0; i < 50; ++i) {
        serve::Submission sa = a.next();
        serve::Submission sb = b.next();
        serve::Submission sc = c.next();
        EXPECT_EQ(sa.spec.submit_time, sb.spec.submit_time);
        EXPECT_EQ(sa.spec.model, sb.spec.model);
        EXPECT_EQ(sa.spec.iterations, sb.spec.iterations);
        EXPECT_EQ(sa.spec.deadline, sb.spec.deadline);
        any_difference = any_difference ||
                         sa.spec.submit_time != sc.spec.submit_time;
    }
    EXPECT_TRUE(any_difference) << "different seeds, same stream";
}

TEST(SyntheticStream, ArrivalStormMultipliesTheRate)
{
    // 10x storm over [0, 1e6): arrivals land ~10x denser than the
    // stormless stream with the same seed.
    FaultConfig fault_config;
    fault_config.script.push_back(
        {0.0, FaultType::kArrivalStorm, -1, 1e6, 10.0});
    FaultInjector faults(fault_config);

    serve::SyntheticStream calm(small_stream(0.01, 11));
    serve::SyntheticStream stormy(small_stream(0.01, 11), &faults);
    for (int i = 0; i < 200; ++i) {
        calm.next();
        stormy.next();
    }
    ASSERT_GT(stormy.now(), 0.0);
    const double speedup = calm.now() / stormy.now();
    EXPECT_GT(speedup, 5.0);
    EXPECT_LT(speedup, 20.0);

    // And the storm replays: same script, same stream.
    FaultInjector faults2(fault_config);
    serve::SyntheticStream replay(small_stream(0.01, 11), &faults2);
    for (int i = 0; i < 200; ++i)
        replay.next();
    EXPECT_EQ(replay.now(), stormy.now());
}

TEST(ShedVerdict, NamesAreStable)
{
    EXPECT_STREQ(shed_verdict_name(serve::ShedVerdict::kAdmitted),
                 "admitted");
    EXPECT_STREQ(
        shed_verdict_name(serve::ShedVerdict::kShedQueueFull),
        "shed-queue-full");
    EXPECT_STREQ(
        shed_verdict_name(serve::ShedVerdict::kShedInfeasible),
        "shed-infeasible");
    EXPECT_TRUE(is_shed(serve::ShedVerdict::kShedQueueFull));
    EXPECT_FALSE(is_shed(serve::ShedVerdict::kDegraded));
}

}  // namespace
}  // namespace ef
