/**
 * @file
 * ThreadPool tests: the fixed-pool parallel_for must run every index
 * exactly once, keep generations strictly separated (a straggler from
 * one dispatch can never claim the next dispatch's indices), and be
 * equivalent to the inline loop for any thread count — including the
 * degenerate single-threaded and null-pool paths the determinism
 * tests rely on.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/parallel.h"

namespace ef {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4);
    std::vector<int> hits(1000, 0);
    pool.parallel_for(static_cast<int>(hits.size()),
                      [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadedRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1);
    std::vector<int> hits(17, 0);
    pool.parallel_for(static_cast<int>(hits.size()),
                      [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 17);
}

TEST(ThreadPool, FreeFunctionToleratesNullPool)
{
    std::vector<int> hits(9, 0);
    parallel_for(nullptr, static_cast<int>(hits.size()),
                 [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 9);
}

TEST(ThreadPool, EmptyAndSingleCounts)
{
    ThreadPool pool(3);
    int calls = 0;
    pool.parallel_for(0, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(-5, [&](int) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallel_for(1, [&](int i) {
        EXPECT_EQ(i, 0);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, FewerItemsThanThreads)
{
    ThreadPool pool(8);
    std::vector<int> hits(3, 0);
    pool.parallel_for(static_cast<int>(hits.size()),
                      [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

/**
 * Back-to-back generations stress the dispatch barrier: a worker
 * still draining generation g must never observe generation g+1's
 * job. Disjoint per-generation slots make any such bleed a visible
 * count error.
 */
TEST(ThreadPool, ManyGenerationsStaySeparated)
{
    ThreadPool pool(4);
    constexpr int kGenerations = 500;
    constexpr int kItems = 23;
    for (int g = 0; g < kGenerations; ++g) {
        std::vector<int> hits(kItems, 0);
        pool.parallel_for(kItems, [&](int i) {
            hits[static_cast<std::size_t>(i)] += g + 1;
        });
        for (int i = 0; i < kItems; ++i)
            ASSERT_EQ(hits[static_cast<std::size_t>(i)], g + 1)
                << "generation " << g << " index " << i;
    }
}

/** Deterministic accumulation into index-owned slots, then a
 *  sequential fold — the usage pattern the pool's contract requires. */
TEST(ThreadPool, IndexOwnedSlotsFoldDeterministically)
{
    ThreadPool pool(4);
    constexpr int kShards = 8;
    constexpr int kJobs = 200;
    std::vector<long> shard_sum(kShards, 0);
    pool.parallel_for(kShards, [&](int s) {
        for (int i = s; i < kJobs; i += kShards)
            shard_sum[static_cast<std::size_t>(s)] += i;
    });
    long total = 0;
    for (long v : shard_sum)
        total += v;
    EXPECT_EQ(total, static_cast<long>(kJobs) * (kJobs - 1) / 2);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace ef
