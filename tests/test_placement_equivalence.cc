/**
 * @file
 * Equivalence fuzz for the buddy repack. Two placement managers see the
 * same random churn — place, resize, release, and GPU and server
 * availability changes. One serves it through place()/resize(), whose
 * repack matches bins to servers per rack over a precomputed overlap
 * matrix; the other through place_reference()/resize_reference(), the
 * original global greedy. Before each placement call the full GPU owner
 * tables must be identical, so each migration's source is too; after
 * it the results (including the migration list, in order), the owner
 * tables and the fragmentation snapshots must be identical, and both
 * managers must validate.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/fragmentation.h"
#include "cluster/placement.h"
#include "common/rng.h"

namespace ef {
namespace {

void
expect_same_result(const PlacementResult &fast, const PlacementResult &ref)
{
    ASSERT_EQ(fast.ok, ref.ok);
    ASSERT_EQ(fast.gpus, ref.gpus);
    ASSERT_EQ(fast.migrations.size(), ref.migrations.size());
    for (std::size_t i = 0; i < fast.migrations.size(); ++i) {
        SCOPED_TRACE("migration " + std::to_string(i));
        EXPECT_EQ(fast.migrations[i].job, ref.migrations[i].job);
        EXPECT_EQ(fast.migrations[i].to, ref.migrations[i].to);
    }
}

void
expect_same_layout(const PlacementManager &fast, const PlacementManager &ref)
{
    fast.validate();
    ref.validate();
    for (GpuCount g = 0; g < fast.total_gpus(); ++g)
        ASSERT_EQ(fast.owner_of(g), ref.owner_of(g)) << "GPU " << g;
    const FragmentationStats a = fragmentation_stats(fast);
    const FragmentationStats b = fragmentation_stats(ref);
    EXPECT_EQ(a.idle_gpus, b.idle_gpus);
    EXPECT_EQ(a.buddy_usable_gpus, b.buddy_usable_gpus);
    EXPECT_EQ(a.buddy_external_frag, b.buddy_external_frag);
    EXPECT_EQ(a.largest_buddy_block, b.largest_buddy_block);
    EXPECT_EQ(a.placed_jobs, b.placed_jobs);
    EXPECT_EQ(a.total_span_excess, b.total_span_excess);
    EXPECT_EQ(a.jobs_with_span_excess, b.jobs_with_span_excess);
}

/** A random power-of-two request: mostly single-server sizes, which
 *  fragment servers, and sometimes whole servers up to a rack. */
GpuCount
random_size(Rng &rng, const Topology &topo)
{
    const GpuCount per_server = topo.gpus_per_server();
    GpuCount max_size = std::min<GpuCount>(
        per_server * topo.spec().servers_per_rack, topo.total_gpus() / 2);
    if (rng.flip(0.75))
        max_size = std::min(max_size, per_server);
    GpuCount size = 1;
    while (size * 2 <= max_size && rng.flip(0.5))
        size *= 2;
    return size;
}

/** Drive both managers through @p steps random operations. Returns
 *  how many of them repacked (so the fuzz can check it exercised the
 *  repack at all). */
int
fuzz(const TopologySpec &spec, std::uint64_t seed, int steps)
{
    const Topology topo(spec);
    PlacementManager fast(&topo);
    PlacementManager ref(&topo);
    Rng rng(seed);
    std::vector<JobId> live;
    constexpr GpuCount kNoGpu = -1;
    GpuCount down_gpu = kNoGpu;
    std::vector<int> down_servers;
    JobId next = 0;
    int repacks = 0;

    auto release = [&](std::size_t idx) {
        fast.release(live[idx]);
        ref.release(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    };
    auto pick = [&rng](std::size_t count) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    };

    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const double op = rng.uniform_real(0.0, 1.0);
        // Keep the cluster at least 80% busy, where fragments force
        // repacks.
        const bool fill = fast.used_gpus() * 5 < fast.total_gpus() * 4;
        if (down_gpu != kNoGpu && rng.flip(0.3)) {
            // A failed GPU is repaired soon: repacks decline meanwhile.
            fast.set_gpu_available(down_gpu, true);
            ref.set_gpu_available(down_gpu, true);
            down_gpu = kNoGpu;
        } else if (op < 0.6 || fill || live.empty()) {
            // Mostly migrating best-fit; the other strategies leave
            // scattered layouts for later repacks to gather.
            PlacementStrategy strategy = PlacementStrategy::kBestFitCompact;
            bool migrate = true;
            if (rng.flip(0.15)) {
                strategy = rng.flip(0.5) ? PlacementStrategy::kFirstFit
                                         : PlacementStrategy::kScatter;
                migrate = false;
            }
            const GpuCount size = random_size(rng, topo);
            if (size > fast.idle_gpus()) {
                release(pick(live.size()));  // full: churn instead
                expect_same_layout(fast, ref);
                continue;
            }
            expect_same_layout(fast, ref);
            const PlacementResult a = fast.place(next, size, strategy,
                                                 migrate);
            const PlacementResult b = ref.place_reference(next, size,
                                                          strategy, migrate);
            expect_same_result(a, b);
            if (a.ok)
                live.push_back(next);
            repacks += !a.migrations.empty();
            ++next;
        } else if (op < 0.78) {
            const JobId job = live[pick(live.size())];
            const GpuCount size = random_size(rng, topo);
            expect_same_layout(fast, ref);
            const PlacementResult a = fast.resize(
                job, size, PlacementStrategy::kBestFitCompact, true);
            const PlacementResult b = ref.resize_reference(
                job, size, PlacementStrategy::kBestFitCompact, true);
            expect_same_result(a, b);
            repacks += !a.migrations.empty();
        } else if (op < 0.9) {
            release(pick(live.size()));
        } else if (op < 0.93) {
            // One GPU fails; its owner is evicted first.
            if (down_gpu == kNoGpu) {
                const GpuCount g = static_cast<GpuCount>(
                    pick(static_cast<std::size_t>(topo.total_gpus())));
                if (!fast.gpu_available(g) ||
                    !fast.server_available(topo.server_of(g))) {
                    continue;
                }
                const JobId owner = fast.owner_of(g);
                if (owner != kInvalidJob) {
                    release(static_cast<std::size_t>(
                        std::find(live.begin(), live.end(), owner) -
                        live.begin()));
                }
                fast.set_gpu_available(g, false);
                ref.set_gpu_available(g, false);
                down_gpu = g;
            }
        } else {
            // A server fails (drained first) or is repaired.
            if (!down_servers.empty() && rng.flip(0.5)) {
                const std::size_t i = pick(down_servers.size());
                fast.set_server_available(down_servers[i], true);
                ref.set_server_available(down_servers[i], true);
                down_servers.erase(down_servers.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            } else if (static_cast<int>(down_servers.size()) <
                       topo.num_servers() / 4) {
                const int s = static_cast<int>(
                    pick(static_cast<std::size_t>(topo.num_servers())));
                if (!fast.server_available(s))
                    continue;
                for (std::size_t i = live.size(); i-- > 0;) {
                    const auto &gpus = fast.gpus_of(live[i]);
                    if (std::any_of(gpus.begin(), gpus.end(),
                                    [&](GpuCount g) {
                                        return topo.server_of(g) == s;
                                    })) {
                        release(i);
                    }
                }
                fast.set_server_available(s, false);
                ref.set_server_available(s, false);
                down_servers.push_back(s);
            }
        }
        expect_same_layout(fast, ref);
        if (testing::Test::HasFatalFailure())
            return repacks;
    }
    return repacks;
}

TEST(PlacementEquivalence, Testbed32)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_GT(fuzz(TopologySpec::testbed_32(), seed, 2000), 10);
    }
}

TEST(PlacementEquivalence, Testbed128)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_GT(fuzz(TopologySpec::testbed_128(), seed, 2000), 10);
    }
}

TEST(PlacementEquivalence, TwoRacksOfSevenServers)
{
    const TopologySpec spec = TopologySpec::with_total_gpus(100);
    ASSERT_EQ(spec.num_racks, 2);
    ASSERT_EQ(spec.servers_per_rack, 7);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        EXPECT_GT(fuzz(spec, seed, 2000), 10);
    }
}

TEST(PlacementEquivalence, Cluster2048)
{
    EXPECT_GT(fuzz(TopologySpec::with_total_gpus(2048), 1, 2000), 10);
}

}  // namespace
}  // namespace ef
