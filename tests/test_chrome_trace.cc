/**
 * @file
 * Chrome trace_event exporter tests: a byte-for-byte golden-file
 * comparison on a hand-scripted event sequence, plus a structural
 * check on the trace recorded from a real simulation run.
 */
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/json.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

#ifndef EF_TEST_GOLDEN_DIR
#error "EF_TEST_GOLDEN_DIR must point at tests/golden"
#endif

namespace ef {
namespace {

std::string
read_file(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** The scripted lifecycle the golden file was generated from: a
 *  crash-recovery replay (6 journal records, 2 rounds re-executed),
 *  then one job admitted via a replan, scaled 2 -> 4 GPUs, released,
 *  finished. Regenerate the
 *  golden by dumping chrome_trace_json(events, 3) for this
 *  sequence. */
std::vector<obs::TraceEvent>
scripted_events()
{
    using obs::EventKind;
    std::vector<obs::TraceEvent> events;
    auto ev = [&](Time t, EventKind k, JobId j, std::int64_t a = 0,
                  std::int64_t b = 0, double x = 0.0,
                  std::vector<std::int64_t> ids = {}) {
        obs::TraceEvent e;
        e.time = t;
        e.kind = k;
        e.job = j;
        e.a = a;
        e.b = b;
        e.x = x;
        e.ids = std::move(ids);
        events.push_back(e);
    };
    ev(0.0, EventKind::kJobSubmit, 7, 4);
    ev(0.5, EventKind::kRecoveryBegin, kInvalidJob, 6, 2);
    ev(0.9, EventKind::kRecoveryEnd, kInvalidJob, 2);
    ev(1.0, EventKind::kJobAdmit, 7);
    ev(1.0, EventKind::kReplanBegin, kInvalidJob, 1);
    ev(1.0, EventKind::kReplanEnd, kInvalidJob, 1, 1);
    ev(1.0, EventKind::kAllocChange, 7, 0, 0, 0.0, {0, 1});
    ev(2.5, EventKind::kScale, 7, 2, 4, 0.25);
    ev(2.5, EventKind::kAllocChange, 7, 0, 0, 0.0, {0, 1, 2, 3});
    ev(5.0, EventKind::kAllocChange, 7, 0, 0, 0.0, {});
    ev(5.0, EventKind::kJobFinish, 7);
    return events;
}

TEST(ChromeTrace, MatchesGoldenFileByteForByte)
{
    std::string json = obs::chrome_trace_json(scripted_events(), 3);
    std::string error;
    EXPECT_TRUE(json_validate(json, &error)) << error;
    std::string golden = read_file(std::string(EF_TEST_GOLDEN_DIR) +
                                   "/chrome_trace_small.json");
    EXPECT_EQ(json, golden);
}

TEST(ChromeTrace, ScriptedSpansHaveExpectedGeometry)
{
    std::string json = obs::chrome_trace_json(scripted_events());
    // Job row: the 2-GPU interval runs from admit (1s) to scale (2.5s).
    EXPECT_NE(json.find("\"name\":\"run x2\",\"ph\":\"X\",\"pid\":1,"
                        "\"tid\":7,\"ts\":1000000,\"dur\":1500000"),
              std::string::npos);
    // GPU 2 is held only by the 4-GPU interval.
    EXPECT_NE(json.find("\"name\":\"job 7\",\"ph\":\"X\",\"pid\":2,"
                        "\"tid\":2,\"ts\":2500000,\"dur\":2500000"),
              std::string::npos);
    // The recovery replay is an async span on the scheduler row,
    // annotated with the journal-record and replay-round counts.
    EXPECT_NE(json.find("\"name\":\"recovery\",\"cat\":\"recovery\","
                        "\"ph\":\"b\",\"id\":0,\"pid\":3,\"tid\":0,"
                        "\"ts\":500000"),
              std::string::npos);
    EXPECT_NE(json.find("\"journal_records\":6"), std::string::npos);
    EXPECT_NE(json.find("\"replayed\":2"), std::string::npos);
    // The replan is an async begin/end pair with an outcome.
    EXPECT_NE(json.find("\"ph\":\"b\",\"id\":0"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"executed\""), std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
}

TEST(ChromeTrace, EmptyStreamStillValidates)
{
    std::string json = obs::chrome_trace_json({});
    std::string error;
    EXPECT_TRUE(json_validate(json, &error)) << error;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, RealRunExportsValidTracks)
{
    TraceGenConfig gen = testbed_small_preset();
    gen.num_jobs = 10;
    Trace trace = TraceGenerator::generate(gen);
    auto scheduler = make_scheduler("elasticflow");
    Simulator sim(trace, scheduler.get());

    obs::RingBufferSink ring(1 << 16);
    std::string json;
    {
        obs::TraceScope scope(&ring);
        sim.run();
        json = obs::chrome_trace_json(ring.events(), ring.dropped());
    }
    std::string error;
    ASSERT_TRUE(json_validate(json, &error)) << error;
    EXPECT_NE(json.find("\"name\":\"jobs\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"GPUs\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"scheduler\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"replan\""), std::string::npos);
    EXPECT_NE(json.find("job_submit"), std::string::npos);
    // The exporter is deterministic: same events, same bytes.
    EXPECT_EQ(json,
              obs::chrome_trace_json(ring.events(), ring.dropped()));
}

}  // namespace
}  // namespace ef
