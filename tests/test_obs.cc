/**
 * @file
 * Tests for the ef::obs subsystem: counters, gauges, histogram bucket
 * edges, the ring-buffer sink, scope nesting, and — the load-bearing
 * property — that installing a recorder leaves the simulation
 * byte-identical (same state hash, same summary).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace ef {
namespace {

TEST(Metrics, CounterSaturatesInsteadOfWrapping)
{
    obs::Counter c;
    c.inc(std::numeric_limits<std::uint64_t>::max() - 1);
    c.inc(5);
    EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
    c.inc();
    EXPECT_EQ(c.value(), std::numeric_limits<std::uint64_t>::max());
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds)
{
    obs::Histogram h({1.0, 2.0, 4.0});
    ASSERT_EQ(h.buckets().size(), 4u);  // 3 edges + overflow
    h.observe(0.5);   // <= 1.0 -> bucket 0
    h.observe(1.0);   // boundary lands in bucket 0 (inclusive)
    h.observe(1.001); // bucket 1
    h.observe(2.0);   // bucket 1
    h.observe(4.0);   // bucket 2
    h.observe(4.5);   // overflow
    h.observe(100.0); // overflow
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[2], 1u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.count(), 7u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 100.0);
    EXPECT_NEAR(h.mean(), (0.5 + 1.0 + 1.001 + 2.0 + 4.0 + 4.5 + 100.0) / 7.0,
                1e-12);
}

TEST(Metrics, RegistryDumpIsSortedAndStable)
{
    obs::MetricsRegistry reg;
    reg.counter("b.counter").inc(2);
    reg.counter("a.counter").inc(1);
    reg.gauge("c.gauge").set(1.5);
    reg.histogram("d.hist", {1.0, 2.0}).observe(1.5);
    std::string dump = reg.text_dump();
    EXPECT_NE(dump.find("a.counter=1\n"), std::string::npos);
    EXPECT_NE(dump.find("b.counter=2\n"), std::string::npos);
    EXPECT_LT(dump.find("a.counter="), dump.find("b.counter="));
    EXPECT_NE(dump.find("d.hist.count=1"), std::string::npos);
    EXPECT_NE(dump.find("d.hist.le.inf=0"), std::string::npos);
    // Two dumps of the same registry are byte-identical.
    EXPECT_EQ(dump, reg.text_dump());
    // CSV dump covers the same metric names.
    std::string csv = reg.csv_dump();
    EXPECT_NE(csv.find("a.counter"), std::string::npos);
    EXPECT_NE(csv.find("d.hist"), std::string::npos);
}

TEST(Metrics, HistogramEdgesApplyOnFirstCreationOnly)
{
    obs::MetricsRegistry reg;
    obs::Histogram &h1 = reg.histogram("h", {1.0, 2.0});
    obs::Histogram &h2 = reg.histogram("h", {9.0});
    EXPECT_EQ(&h1, &h2);
    EXPECT_EQ(h2.edges().size(), 2u);
}

TEST(Metrics, HelpersAreNoOpsWhenDisabled)
{
    ASSERT_EQ(obs::metrics(), nullptr);
    obs::count("nobody.listens");
    obs::gauge_set("nobody.listens", 1.0);
    obs::observe("nobody.listens", {1.0}, 0.5);
    EXPECT_EQ(obs::metrics(), nullptr);
}

TEST(Metrics, ScopesNestAndRestore)
{
    obs::MetricsRegistry outer, inner;
    ASSERT_EQ(obs::metrics(), nullptr);
    {
        obs::MetricsScope a(&outer);
        EXPECT_EQ(obs::metrics(), &outer);
        obs::count("k");
        {
            obs::MetricsScope b(&inner);
            EXPECT_EQ(obs::metrics(), &inner);
            obs::count("k", 10);
        }
        EXPECT_EQ(obs::metrics(), &outer);
        obs::count("k");
    }
    EXPECT_EQ(obs::metrics(), nullptr);
    EXPECT_EQ(outer.counter("k").value(), 2u);
    EXPECT_EQ(inner.counter("k").value(), 10u);
}

TEST(Trace, RingBufferKeepsMostRecentAndCountsDrops)
{
    obs::RingBufferSink ring(3);
    for (int i = 0; i < 5; ++i) {
        obs::TraceEvent e;
        e.time = static_cast<Time>(i);
        e.a = i;
        ring.record(e);
    }
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.dropped(), 2u);
    std::vector<obs::TraceEvent> events = ring.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].a, 2);
    EXPECT_EQ(events[1].a, 3);
    EXPECT_EQ(events[2].a, 4);
}

TEST(Trace, EmitIsNoOpWithoutSinkAndScopesNest)
{
    auto make = [](Time t, obs::EventKind k) {
        obs::TraceEvent e;
        e.time = t;
        e.kind = k;
        e.job = 1;
        return e;
    };
    ASSERT_FALSE(obs::tracing());
    obs::emit(make(0.0, obs::EventKind::kJobSubmit));  // must not crash
    obs::RingBufferSink outer(8), inner(8);
    {
        obs::TraceScope a(&outer);
        EXPECT_TRUE(obs::tracing());
        obs::emit(make(1.0, obs::EventKind::kJobSubmit));
        {
            obs::TraceScope b(&inner);
            obs::emit(make(2.0, obs::EventKind::kJobAdmit));
        }
        obs::emit(make(3.0, obs::EventKind::kJobFinish));
    }
    EXPECT_FALSE(obs::tracing());
    EXPECT_EQ(outer.size(), 2u);
    EXPECT_EQ(inner.size(), 1u);
}

TEST(Trace, EventKindNamesAreStable)
{
    EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kJobSubmit),
                 "job_submit");
    EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kReplanBegin),
                 "replan_begin");
    EXPECT_STREQ(obs::event_kind_name(obs::EventKind::kRpcRetry),
                 "rpc_retry");
}

/** The regression the whole design hangs on: recording must not
 *  perturb the simulation. */
TEST(Obs, SimulationIsByteIdenticalWithRecorderInstalled)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 15;
    Trace trace = TraceGenerator::generate(gen);

    auto run = [&](bool instrumented) {
        auto scheduler = make_scheduler("elasticflow");
        SimConfig config;
        config.faults.server_mtbf_s = 2.0 * kDay;
        config.faults.server_seed = 1;
        Simulator sim(trace, scheduler.get(), config);
        if (!instrumented)
            return sim.run();
        obs::RingBufferSink ring(1 << 16);
        obs::MetricsRegistry registry;
        obs::TraceScope ts(&ring);
        obs::MetricsScope ms(&registry);
        RunResult result = sim.run();
        EXPECT_GT(ring.size(), 0u);
        EXPECT_FALSE(registry.empty());
        return result;
    };

    RunResult plain = run(false);
    RunResult traced = run(true);
    EXPECT_EQ(plain.state_hash, traced.state_hash);
    EXPECT_EQ(plain.state_hash_samples, traced.state_hash_samples);
    EXPECT_EQ(summarize(plain), summarize(traced));
}

}  // namespace
}  // namespace ef
