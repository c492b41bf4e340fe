/**
 * @file
 * Tests for the placement manager: best-fit selection, fragmentation
 * behaviour of the non-migrating strategies, and the buddy guarantee —
 * with migration, any power-of-two request that fits idle capacity is
 * placeable and compact — plus the fragmentation metrics the simulator
 * samples (cluster/fragmentation.h).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "cluster/fragmentation.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "recover/fields.h"

namespace ef {
namespace {

class PlacementTest : public testing::Test
{
  protected:
    PlacementTest()
        : topo_(TopologySpec::testbed_128()), manager_(&topo_)
    {}

    Topology topo_;
    PlacementManager manager_;
};

TEST_F(PlacementTest, BestFitPrefersTightestServer)
{
    // Occupy 6 GPUs of server 0 so it has 2 free; server 1 full free.
    ASSERT_TRUE(manager_
                    .place(100, 4, PlacementStrategy::kBestFitCompact,
                           false)
                    .ok);
    ASSERT_TRUE(manager_
                    .place(101, 2, PlacementStrategy::kBestFitCompact,
                           false)
                    .ok);
    // A 2-GPU job should best-fit into server 0's remaining 2 GPUs.
    PlacementResult r =
        manager_.place(102, 2, PlacementStrategy::kBestFitCompact, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(topo_.server_of(r.gpus[0]), 0);
    EXPECT_EQ(topo_.server_of(r.gpus[1]), 0);
    manager_.validate();
}

TEST_F(PlacementTest, CompactPlacementSingleServer)
{
    PlacementResult r =
        manager_.place(1, 8, PlacementStrategy::kBestFitCompact, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(manager_.server_span(1), 1);
    EXPECT_EQ(manager_.comm_level_of(1), CommLevel::kIntraServer);
}

TEST_F(PlacementTest, MultiServerJobStaysRackLocal)
{
    PlacementResult r =
        manager_.place(1, 32, PlacementStrategy::kBestFitCompact, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(manager_.server_span(1), 4);
    EXPECT_EQ(manager_.comm_level_of(1), CommLevel::kIntraRack);
}

TEST_F(PlacementTest, ScatterSpreadsAcrossServers)
{
    PlacementResult r =
        manager_.place(1, 8, PlacementStrategy::kScatter, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(manager_.server_span(1), 8);
}

TEST_F(PlacementTest, FirstFitTakesLowestIds)
{
    ASSERT_TRUE(manager_.place(1, 3, PlacementStrategy::kFirstFit,
                               false).ok);
    std::vector<GpuCount> expect = {0, 1, 2};
    EXPECT_EQ(manager_.gpus_of(1), expect);
}

/** Leave every server with exactly one idle GPU (4+2+1 used). */
void
fill_servers_to_seven(PlacementManager *manager, const Topology &topo)
{
    // Deterministic construction: first-fit walks GPU ids in order, so
    // processing one server at a time with a placeholder plugging the
    // would-be hole yields exactly 4 + 2 + 1 used per server; dropping
    // the placeholders afterwards leaves one idle GPU everywhere.
    for (int s = 0; s < topo.num_servers(); ++s) {
        ASSERT_TRUE(manager
                        ->place(100 + s, 4, PlacementStrategy::kFirstFit,
                                false)
                        .ok);
        ASSERT_TRUE(manager
                        ->place(200 + s, 2, PlacementStrategy::kFirstFit,
                                false)
                        .ok);
        ASSERT_TRUE(manager
                        ->place(300 + s, 1, PlacementStrategy::kFirstFit,
                                false)
                        .ok);
        ASSERT_TRUE(manager
                        ->place(400 + s, 1, PlacementStrategy::kFirstFit,
                                false)
                        .ok);  // placeholder for the hole
    }
    for (int s = 0; s < topo.num_servers(); ++s)
        manager->release(400 + s);
    for (int s = 0; s < topo.num_servers(); ++s)
        ASSERT_EQ(manager->free_in_server(s), 1) << "server " << s;
}

TEST_F(PlacementTest, FragmentationWithoutMigration)
{
    // The paper's fragmentation scenario (§4.3): plenty of idle GPUs
    // in total, but no server has two adjacent ones.
    fill_servers_to_seven(&manager_, topo_);
    EXPECT_EQ(manager_.idle_gpus(), 16);
    // Without migration the 2-GPU job is forced to span servers.
    PlacementResult r = manager_.place(
        999, 2, PlacementStrategy::kBestFitCompact, false);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(topo_.server_span(r.gpus), 2);
}

TEST_F(PlacementTest, MigrationDefragments)
{
    fill_servers_to_seven(&manager_, topo_);
    PlacementResult r = manager_.place(
        999, 2, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(topo_.server_span(r.gpus), 1);
    EXPECT_FALSE(r.migrations.empty());
    manager_.validate();
}

/**
 * Testbed 32 with 2 idle GPUs in server 0 and 3 in server 2: no server
 * fits a 4-GPU job, so best-fit falls back to fullest-first and
 * returns server 2's GPUs before server 0's.
 */
void
fragment_testbed_32(PlacementManager *manager)
{
    const std::pair<JobId, GpuCount> fills[] = {
        {1, 4}, {2, 2}, {90, 2}, {3, 8}, {4, 4}, {5, 1}, {91, 3}, {6, 8}};
    for (const auto &[job, size] : fills) {
        ASSERT_TRUE(
            manager->place(job, size, PlacementStrategy::kFirstFit, false)
                .ok);
    }
    manager->release(90);  // GPUs 6-7
    manager->release(91);  // GPUs 21-23
}

TEST(PlacementFallback, FullestFirstIdsComeBackSorted)
{
    Topology topo(TopologySpec::testbed_32());
    PlacementManager manager(&topo);
    fragment_testbed_32(&manager);
    PlacementResult r =
        manager.place(99, 4, PlacementStrategy::kBestFitCompact, false);
    ASSERT_TRUE(r.ok);
    const std::vector<GpuCount> want = {6, 21, 22, 23};
    EXPECT_EQ(r.gpus, want);
    EXPECT_EQ(manager.gpus_of(99), want);
    EXPECT_EQ(topo.server_span(r.gpus), 2);
    EXPECT_TRUE(r.migrations.empty());
    manager.validate();
}

TEST(PlacementFallback, SpreadFallbackStillTriggersRepack)
{
    // The fallback spans two servers where one would do, so a migrating
    // place repacks — with either repack — and the job lands compact.
    Topology topo(TopologySpec::testbed_32());
    PlacementManager fast(&topo);
    PlacementManager ref(&topo);
    fragment_testbed_32(&fast);
    fragment_testbed_32(&ref);
    PlacementResult a =
        fast.place(99, 4, PlacementStrategy::kBestFitCompact, true);
    PlacementResult b =
        ref.place_reference(99, 4, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(fast.server_span(99), 1);
    EXPECT_FALSE(a.migrations.empty());
    EXPECT_EQ(a.gpus, b.gpus);
    ASSERT_EQ(a.migrations.size(), b.migrations.size());
    for (std::size_t i = 0; i < a.migrations.size(); ++i) {
        EXPECT_EQ(a.migrations[i].job, b.migrations[i].job);
        EXPECT_EQ(a.migrations[i].to, b.migrations[i].to);
    }
    fast.validate();
}

TEST_F(PlacementTest, ResizeShrinkKeepsDensestServers)
{
    ASSERT_TRUE(manager_.place(1, 16, PlacementStrategy::kBestFitCompact,
                               true).ok);
    PlacementResult r = manager_.resize(
        1, 8, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(manager_.server_span(1), 1);
    manager_.validate();
}

TEST(PlacementShrink, DensestServerFirstThenLowestServer)
{
    // Job 9 holds 2 GPUs in server 0, 4 in server 1 and 2 in server 2.
    Topology topo(TopologySpec::testbed_32());
    PlacementManager manager(&topo);
    const std::pair<JobId, GpuCount> fills[] = {
        {1, 6}, {90, 2}, {2, 4}, {91, 4}, {92, 2}, {3, 6}, {4, 8}};
    for (const auto &[job, size] : fills) {
        ASSERT_TRUE(
            manager.place(job, size, PlacementStrategy::kFirstFit, false)
                .ok);
    }
    for (JobId hold : {90, 91, 92})
        manager.release(hold);
    ASSERT_TRUE(
        manager.place(9, 8, PlacementStrategy::kFirstFit, false).ok);
    ASSERT_EQ(manager.gpus_of(9),
              (std::vector<GpuCount>{6, 7, 12, 13, 14, 15, 16, 17}));
    // Server 1's four stay; the tie between servers 0 and 2 goes to 0.
    PlacementResult r =
        manager.resize(9, 5, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.gpus, (std::vector<GpuCount>{6, 12, 13, 14, 15}));
    EXPECT_EQ(manager.gpus_of(9), r.gpus);
    manager.validate();
}

TEST_F(PlacementTest, ResizeGrowRestoresOnFailure)
{
    ASSERT_TRUE(manager_.place(1, 64, PlacementStrategy::kBestFitCompact,
                               true).ok);
    ASSERT_TRUE(manager_.place(2, 64, PlacementStrategy::kBestFitCompact,
                               true).ok);
    std::vector<GpuCount> before = manager_.gpus_of(1);
    PlacementResult r = manager_.resize(
        1, 128, PlacementStrategy::kBestFitCompact, true);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(manager_.gpus_of(1), before);
    manager_.validate();
}

TEST_F(PlacementTest, ReleaseFreesGpus)
{
    ASSERT_TRUE(manager_.place(1, 32, PlacementStrategy::kBestFitCompact,
                               true).ok);
    EXPECT_EQ(manager_.idle_gpus(), 96);
    manager_.release(1);
    EXPECT_EQ(manager_.idle_gpus(), 128);
    EXPECT_FALSE(manager_.is_placed(1));
}

/**
 * The buddy guarantee (paper §4.3): random power-of-two workloads with
 * migration never fail a placement that fits idle capacity, and jobs
 * of <= 8 GPUs always land on a single server.
 */
TEST_F(PlacementTest, BuddyGuaranteePropertySweep)
{
    Rng rng(77);
    std::set<JobId> live;
    JobId next = 0;
    for (int step = 0; step < 2000; ++step) {
        bool do_place = live.empty() || rng.flip(0.55);
        if (do_place) {
            GpuCount size = GpuCount(1) << rng.uniform_int(0, 5);
            GpuCount idle_before = manager_.idle_gpus();
            PlacementResult r = manager_.place(
                next, size, PlacementStrategy::kBestFitCompact, true);
            if (size <= idle_before) {
                ASSERT_TRUE(r.ok)
                    << "step " << step << " size " << size << " idle "
                    << idle_before;
                int compact_span = (size + 7) / 8;
                EXPECT_LE(manager_.server_span(next), compact_span)
                    << "step " << step;
                live.insert(next);
            } else {
                EXPECT_FALSE(r.ok);
            }
            ++next;
        } else {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            manager_.release(*it);
            live.erase(it);
        }
        if (step % 100 == 0)
            manager_.validate();
    }
}

TEST_F(PlacementTest, MultiServerBuddyStaysRackLocalUnderChurn)
{
    Rng rng(88);
    std::set<JobId> live;
    JobId next = 0;
    for (int step = 0; step < 600; ++step) {
        if (live.empty() || rng.flip(0.55)) {
            GpuCount size = GpuCount(1) << rng.uniform_int(3, 6);  // 8..64
            if (size <= manager_.idle_gpus()) {
                PlacementResult r = manager_.place(
                    next, size, PlacementStrategy::kBestFitCompact, true);
                ASSERT_TRUE(r.ok) << "step " << step;
                // <= 64 GPUs fits one rack; buddy keeps it there.
                EXPECT_EQ(topo_.rack_span(manager_.gpus_of(next)), 1)
                    << "step " << step << " size " << size;
                live.insert(next);
            }
            ++next;
        } else {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            manager_.release(*it);
            live.erase(it);
        }
    }
}

/** The kept ownership digests agree with hashing every GPU and
 *  server row from scratch. */
void
expect_digest_current(const PlacementManager &manager,
                      const std::string &after)
{
    EXPECT_EQ(recover::digest(manager), recover::recomputed_digest(manager))
        << "after " << after;
}

TEST_F(PlacementTest, OwnershipDigestTracksEveryMutation)
{
    const std::uint64_t empty = recover::digest(manager_);  // fills caches
    fill_servers_to_seven(&manager_, topo_);
    expect_digest_current(manager_, "first-fit places and releases");

    PlacementResult placed = manager_.place(
        999, 2, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(placed.ok);
    ASSERT_FALSE(placed.migrations.empty());
    expect_digest_current(manager_, "a place that migrates");

    for (JobId job : manager_.placed_jobs())
        manager_.release(job);
    EXPECT_EQ(recover::digest(manager_), empty);
    expect_digest_current(manager_, "releasing everything");

    // No server has four idle GPUs once job 200 lets go of its two, so
    // growing it repacks.
    fill_servers_to_seven(&manager_, topo_);
    PlacementResult grown = manager_.resize(
        200, 4, PlacementStrategy::kBestFitCompact, true);
    ASSERT_TRUE(grown.ok);
    ASSERT_FALSE(grown.migrations.empty());
    expect_digest_current(manager_, "a resize that migrates");
    ASSERT_TRUE(manager_
                    .resize(200, 1, PlacementStrategy::kBestFitCompact,
                            true)
                    .ok);
    expect_digest_current(manager_, "a shrink");

    // Availability round trips restore the digest exactly.
    const std::uint64_t placed_digest = recover::digest(manager_);
    GpuCount idle = 0;
    while (manager_.owner_of(idle) != kInvalidJob)
        ++idle;
    manager_.set_gpu_available(idle, false);
    expect_digest_current(manager_, "a GPU going down");
    EXPECT_NE(recover::digest(manager_), placed_digest);
    manager_.set_gpu_available(idle, true);
    EXPECT_EQ(recover::digest(manager_), placed_digest);

    const int server = topo_.num_servers() - 1;
    for (JobId job : manager_.placed_jobs()) {
        if (topo_.server_of(manager_.gpus_of(job).front()) == server)
            manager_.release(job);
    }
    ASSERT_EQ(manager_.free_in_server(server), topo_.gpus_per_server());
    manager_.set_server_available(server, false);
    expect_digest_current(manager_, "a server going down");
    manager_.set_server_available(server, true);
    expect_digest_current(manager_, "a server coming back");

    for (JobId job : manager_.placed_jobs())
        manager_.release(job);
    EXPECT_EQ(recover::digest(manager_), empty);
    expect_digest_current(manager_, "releasing everything");
}

/** available_gpus() and idle_gpus() of @p pm, counted GPU by GPU. */
std::pair<GpuCount, GpuCount>
count_capacity(const PlacementManager &pm, const Topology &topo)
{
    GpuCount available = 0;
    GpuCount idle = 0;
    for (GpuCount g = 0; g < topo.total_gpus(); ++g) {
        if (!pm.server_available(topo.server_of(g)) || !pm.gpu_available(g))
            continue;
        ++available;
        idle += pm.owner_of(g) == kInvalidJob ? 1 : 0;
    }
    return {available, idle};
}

/** fragmentation_stats() of @p pm, which reads the span counters,
 *  equals the job-by-job scan, field by field. */
void
expect_stats_match_scan(const PlacementManager &pm, int step)
{
    const FragmentationStats got = fragmentation_stats(pm);
    const FragmentationStats want = scanned_fragmentation_stats(pm);
    EXPECT_EQ(got.idle_gpus, want.idle_gpus) << "step " << step;
    EXPECT_EQ(got.buddy_usable_gpus, want.buddy_usable_gpus)
        << "step " << step;
    EXPECT_EQ(got.buddy_external_frag, want.buddy_external_frag)
        << "step " << step;
    EXPECT_EQ(got.largest_buddy_block, want.largest_buddy_block)
        << "step " << step;
    EXPECT_EQ(got.placed_jobs, want.placed_jobs) << "step " << step;
    EXPECT_EQ(got.total_span_excess, want.total_span_excess)
        << "step " << step;
    EXPECT_EQ(got.jobs_with_span_excess, want.jobs_with_span_excess)
        << "step " << step;
}

TEST_F(PlacementTest, CapacityCountersFollowEveryMutation)
{
    Rng rng(7);
    std::set<JobId> live;
    JobId next = 0;
    const auto check = [&](int step) {
        manager_.validate();
        EXPECT_EQ(std::make_pair(manager_.available_gpus(),
                                 manager_.idle_gpus()),
                  count_capacity(manager_, topo_))
            << "step " << step;
        EXPECT_EQ(manager_.used_gpus(),
                  manager_.available_gpus() - manager_.idle_gpus());
        expect_stats_match_scan(manager_, step);
    };
    check(-1);
    EXPECT_EQ(manager_.available_gpus(), topo_.total_gpus());
    for (int step = 0; step < 800; ++step) {
        const double op = rng.uniform_real(0.0, 1.0);
        if (op < 0.35 || live.empty()) {
            const GpuCount size = GpuCount(1) << rng.uniform_int(0, 4);
            if (manager_.place(next, size, PlacementStrategy::kBestFitCompact,
                               true)
                    .ok) {
                live.insert(next);
            }
            ++next;
        } else if (op < 0.5) {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            manager_.resize(*it, GpuCount(1) << rng.uniform_int(0, 5),
                            PlacementStrategy::kBestFitCompact, true);
        } else if (op < 0.7) {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            manager_.release(*it);
            live.erase(it);
        } else if (op < 0.85) {
            // A GPU fault or repair, on an up or a down server.
            const GpuCount gpu = static_cast<GpuCount>(
                rng.uniform_int(0, topo_.total_gpus() - 1));
            if (!manager_.gpu_available(gpu))
                manager_.set_gpu_available(gpu, true);
            else if (manager_.owner_of(gpu) == kInvalidJob)
                manager_.set_gpu_available(gpu, false);
        } else {
            // A server crash (once drained) or repair; setting the
            // current state again is a no-op.
            const int server = static_cast<int>(
                rng.uniform_int(0, topo_.num_servers() - 1));
            if (!manager_.server_available(server)) {
                manager_.set_server_available(server, true);
            } else {
                for (JobId job : manager_.placed_jobs()) {
                    const std::vector<GpuCount> &gpus = manager_.gpus_of(job);
                    if (std::any_of(gpus.begin(), gpus.end(),
                                    [&](GpuCount g) {
                                        return topo_.server_of(g) == server;
                                    })) {
                        manager_.release(job);
                        live.erase(job);
                    }
                }
                manager_.set_server_available(server, false);
                manager_.set_server_available(server, false);
            }
        }
        check(step);
    }

    // A decoded manager rebuilds the counters from its tables.
    PlacementManager back(&topo_);
    ASSERT_TRUE(recover::decode(recover::encode(manager_), back).ok());
    EXPECT_EQ(back.available_gpus(), manager_.available_gpus());
    EXPECT_EQ(back.idle_gpus(), manager_.idle_gpus());
    back.validate();
    expect_stats_match_scan(back, 800);
    EXPECT_EQ(back.total_span_excess(), manager_.total_span_excess());
    EXPECT_EQ(back.jobs_with_span_excess(),
              manager_.jobs_with_span_excess());
}

TEST_F(PlacementTest, OwnershipDigestUnderRandomChurn)
{
    (void)recover::digest(manager_);
    Rng rng(99);
    std::set<JobId> live;
    std::set<GpuCount> down;
    JobId next = 0;
    for (int step = 0; step < 600; ++step) {
        const double op = rng.uniform_real(0.0, 1.0);
        if (op < 0.45 || live.empty()) {
            const GpuCount size = GpuCount(1) << rng.uniform_int(0, 4);
            if (manager_.place(next, size, PlacementStrategy::kBestFitCompact,
                               true)
                    .ok) {
                live.insert(next);
            }
            ++next;
        } else if (op < 0.65) {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            const GpuCount size = GpuCount(1) << rng.uniform_int(0, 5);
            manager_.resize(*it, size, PlacementStrategy::kBestFitCompact,
                            true);
        } else if (op < 0.85) {
            auto it = live.begin();
            std::advance(it, rng.uniform_int(
                                 0, static_cast<std::int64_t>(
                                        live.size()) - 1));
            manager_.release(*it);
            live.erase(it);
        } else {
            const GpuCount gpu = static_cast<GpuCount>(
                rng.uniform_int(0, topo_.total_gpus() - 1));
            if (down.count(gpu) > 0) {
                manager_.set_gpu_available(gpu, true);
                down.erase(gpu);
            } else if (manager_.owner_of(gpu) == kInvalidJob) {
                manager_.set_gpu_available(gpu, false);
                down.insert(gpu);
            }
        }
        ASSERT_EQ(recover::digest(manager_),
                  recover::recomputed_digest(manager_))
            << "step " << step;
    }
}

// --- fragmentation metrics ---------------------------------------------

TEST(BuddyBlockFloor, LargestPowerOfTwoAtMostN)
{
    EXPECT_EQ(buddy_block_floor(0), 0);
    EXPECT_EQ(buddy_block_floor(1), 1);
    EXPECT_EQ(buddy_block_floor(2), 2);
    EXPECT_EQ(buddy_block_floor(3), 2);
    EXPECT_EQ(buddy_block_floor(5), 4);
    EXPECT_EQ(buddy_block_floor(7), 4);
    EXPECT_EQ(buddy_block_floor(8), 8);
}

TEST(FragmentationStats, EmptyClusterHasNoFragmentation)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.idle_gpus, 16);
    EXPECT_EQ(stats.buddy_usable_gpus, 16);
    EXPECT_DOUBLE_EQ(stats.buddy_external_frag, 0.0);
    EXPECT_EQ(stats.total_span_excess, 0);
}

TEST(FragmentationStats, OddHolesAreExternalFragmentation)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    // One 1-GPU job leaves a 7-GPU hole: only a 4-block is buddy-usable
    // there, so 3 of 15 idle GPUs are stranded.
    ASSERT_TRUE(pm.place(1, 1, PlacementStrategy::kBestFitCompact,
                         false).ok);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.idle_gpus, 15);
    EXPECT_EQ(stats.buddy_usable_gpus, 12);
    EXPECT_NEAR(stats.buddy_external_frag, 0.2, 1e-12);
    EXPECT_EQ(stats.largest_buddy_block, 8);
}

TEST(FragmentationStats, ScatteredJobsHaveSpanExcess)
{
    Topology topo(TopologySpec::with_total_gpus(16));
    PlacementManager pm(&topo);
    // kScatter round-robins across servers: a 4-GPU job lands 2+2
    // although it fits on one server (compact span 1, actual span 2).
    ASSERT_TRUE(pm.place(1, 4, PlacementStrategy::kScatter, false).ok);
    EXPECT_EQ(pm.server_span(1), 2);
    EXPECT_EQ(span_excess_of(pm, 1), 1);
    FragmentationStats stats = fragmentation_stats(pm);
    EXPECT_EQ(stats.total_span_excess, 1);
    EXPECT_EQ(stats.jobs_with_span_excess, 1);
    EXPECT_EQ(stats.placed_jobs, 1);
}

}  // namespace
}  // namespace ef
