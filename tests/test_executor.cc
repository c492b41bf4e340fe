/**
 * @file
 * Tests for the elastic training executor model: worker groups, local
 * batch adjustment, iteration-granular progress, and checkpoint
 * semantics on scaling (paper §5).
 */
#include <gtest/gtest.h>

#include "exec/executor.h"

namespace ef {
namespace {

class ExecutorTest : public testing::Test
{
  protected:
    ExecutorTest()
        : topo_(TopologySpec::testbed_128()), perf_(&topo_),
          overhead_(OverheadConfig{})
    {}

    JobSpec
    spec(std::int64_t iterations, DnnModel model = DnnModel::kResNet50,
         int batch = 128) const
    {
        JobSpec s;
        s.id = 1;
        s.model = model;
        s.global_batch = batch;
        s.iterations = iterations;
        s.submit_time = 0.0;
        return s;
    }

    Topology topo_;
    PerfModel perf_;
    OverheadModel overhead_;
};

TEST_F(ExecutorTest, WorkersPreserveGlobalBatch)
{
    JobExecution exec(spec(100), &perf_, &overhead_);
    exec.scale(0.0, {0, 1, 2, 3});
    ASSERT_EQ(exec.worker_count(), 4);
    int total = 0;
    for (const Worker &w : exec.workers())
        total += w.local_batch;
    EXPECT_EQ(total, 128);
    for (const Worker &w : exec.workers())
        EXPECT_EQ(w.local_batch, 32);
}

TEST_F(ExecutorTest, UnevenShardingKeepsGlobalBatch)
{
    // 128 samples over 3 workers: 43 + 43 + 42.
    JobExecution exec(spec(100), &perf_, &overhead_);
    exec.scale(0.0, {0, 1, 2});
    int total = 0;
    for (const Worker &w : exec.workers()) {
        total += w.local_batch;
        EXPECT_LE(w.local_batch, 43);
    }
    EXPECT_EQ(total, 128);
}

TEST_F(ExecutorTest, ProgressIsIterationGranular)
{
    JobExecution exec(spec(1000), &perf_, &overhead_);
    exec.scale(0.0, {0});
    double iter = exec.iteration_seconds();
    ASSERT_GT(iter, 0.0);
    Time start = exec.finish_time_estimate() -
                 1000.0 * iter;  // when iterating actually begins
    exec.advance(start + 10.5 * iter);
    EXPECT_EQ(exec.completed_iterations(), 10);
    exec.advance(start + 11.0 * iter + 1e-9);
    EXPECT_EQ(exec.completed_iterations(), 11);
}

TEST_F(ExecutorTest, ScalingChargesOverheadPause)
{
    JobExecution exec(spec(1000000), &perf_, &overhead_);
    exec.scale(0.0, {0});
    Time t1 = exec.finish_time_estimate();
    exec.scale(100.0, {0, 1});
    Time t2 = exec.finish_time_estimate();
    EXPECT_LT(t2, t1);  // more GPUs, faster despite the pause
    EXPECT_EQ(exec.checkpoints_taken(), 2);

    // A no-op scale (same GPUs) takes no checkpoint.
    std::vector<GpuCount> same = {0, 1};
    exec.scale(200.0, same);
    EXPECT_EQ(exec.checkpoints_taken(), 2);
}

TEST_F(ExecutorTest, SuspendStopsProgress)
{
    JobExecution exec(spec(1000), &perf_, &overhead_);
    exec.scale(0.0, {0});
    exec.advance(100.0);
    std::int64_t done = exec.completed_iterations();
    EXPECT_GT(done, 0);
    exec.scale(100.0, {});
    exec.advance(10000.0);
    EXPECT_EQ(exec.completed_iterations(), done);
    EXPECT_EQ(exec.finish_time_estimate(), kTimeInfinity);
    // Resume completes the job.
    exec.scale(10000.0, {0, 1});
    exec.advance(1e9);
    EXPECT_TRUE(exec.finished());
}

TEST_F(ExecutorTest, RelaunchAfterSuspendResumesProgress)
{
    JobExecution exec(spec(1000000), &perf_, &overhead_);
    exec.scale(0.0, {0, 1});
    exec.scale(100.0, {0, 1, 2, 3, 4, 5, 6, 7});
    EXPECT_EQ(exec.worker_count(), 8);
    exec.advance(500.0);
    std::int64_t done = exec.completed_iterations();
    EXPECT_GT(done, 0);
    exec.scale(500.0, {});
    EXPECT_EQ(exec.worker_count(), 0);
    exec.advance(5000.0);
    EXPECT_EQ(exec.completed_iterations(), done);
    // Relaunched on other GPUs, the job resumes from where it stopped.
    exec.scale(5000.0, {8, 9});
    EXPECT_EQ(exec.worker_count(), 2);
    EXPECT_EQ(exec.completed_iterations(), done);
    exec.advance(6000.0);
    EXPECT_GT(exec.completed_iterations(), done);
    EXPECT_EQ(exec.checkpoints_taken(), 4);
}

TEST_F(ExecutorTest, PartialIterationLostOnScale)
{
    JobExecution exec(spec(1000), &perf_, &overhead_);
    exec.scale(0.0, {0});
    double iter = exec.iteration_seconds();
    // Land mid-iteration, then rescale: the fraction is discarded.
    exec.scale(10.0 * iter + 0.5 * iter, {0, 1});
    EXPECT_LE(exec.completed_iterations(), 10);
    std::int64_t before = exec.completed_iterations();
    exec.advance(10.0 * iter + 0.6 * iter);
    EXPECT_EQ(exec.completed_iterations(), before);
}

TEST_F(ExecutorTest, PlacementShapeAffectsIterationTime)
{
    JobExecution compact(spec(100), &perf_, &overhead_);
    compact.scale(0.0, {0, 1, 2, 3, 4, 5, 6, 7});
    JobExecution spread(spec(100), &perf_, &overhead_);
    spread.scale(0.0, {0, 8, 16, 24, 32, 40, 48, 56});
    EXPECT_LT(compact.iteration_seconds(), spread.iteration_seconds());
}

TEST_F(ExecutorTest, MemoryOverflowDies)
{
    JobExecution exec(spec(100, DnnModel::kGpt2, 256), &perf_,
                      &overhead_);
    // GPT-2 max local batch 32: 256 / 4 = 64 overflows.
    EXPECT_DEATH(exec.scale(0.0, {0, 1, 2, 3}), "memory limit");
}

TEST_F(ExecutorTest, FinishedJobKeepsItsFinishTime)
{
    JobExecution exec(spec(17), &perf_, &overhead_);
    exec.scale(0.0, {0, 1});
    exec.advance(1e9);
    ASSERT_TRUE(exec.finished());
    const Time finish = exec.last_progress_time();
    EXPECT_LT(finish, 1e9);
    // Later time and later scales leave a finished job alone.
    exec.advance(2e9);
    exec.scale(3e9, {0, 1, 2, 3});
    exec.scale(4e9, {});
    EXPECT_EQ(exec.last_progress_time(), finish);
    EXPECT_EQ(exec.checkpoints_taken(), 1);
    EXPECT_EQ(exec.worker_count(), 2);
}

TEST_F(ExecutorTest, FinishExactlyAtIterationCount)
{
    JobExecution exec(spec(17), &perf_, &overhead_);
    exec.scale(0.0, {0, 1});
    exec.advance(1e9);
    EXPECT_TRUE(exec.finished());
    EXPECT_EQ(exec.completed_iterations(), 17);
    for (const Worker &w : exec.workers())
        EXPECT_EQ(w.samples_processed, 17 * w.local_batch);
}

}  // namespace
}  // namespace ef
