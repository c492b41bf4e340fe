/**
 * @file
 * Tests for the cluster topology model: id arithmetic, span
 * classification, and the hierarchical bandwidth model.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"

namespace ef {
namespace {

TEST(Topology, Testbed128Shape)
{
    Topology topo(TopologySpec::testbed_128());
    EXPECT_EQ(topo.total_gpus(), 128);
    EXPECT_EQ(topo.num_servers(), 16);
    EXPECT_EQ(topo.num_racks(), 2);
    EXPECT_EQ(topo.gpus_per_server(), 8);
}

TEST(Topology, IdArithmetic)
{
    Topology topo(TopologySpec::testbed_128());
    EXPECT_EQ(topo.server_of(0), 0);
    EXPECT_EQ(topo.server_of(7), 0);
    EXPECT_EQ(topo.server_of(8), 1);
    EXPECT_EQ(topo.server_of(127), 15);
    EXPECT_EQ(topo.rack_of(0), 0);
    EXPECT_EQ(topo.rack_of(63), 0);
    EXPECT_EQ(topo.rack_of(64), 1);
    EXPECT_EQ(topo.first_gpu_of_server(3), 24);
    EXPECT_EQ(topo.rack_of_server(7), 0);
    EXPECT_EQ(topo.rack_of_server(8), 1);
}

TEST(Topology, SpanAndCommLevel)
{
    Topology topo(TopologySpec::testbed_128());
    EXPECT_EQ(topo.comm_level({5}), CommLevel::kSingleGpu);
    EXPECT_EQ(topo.comm_level({0, 1, 2}), CommLevel::kIntraServer);
    EXPECT_EQ(topo.comm_level({0, 8}), CommLevel::kIntraRack);
    EXPECT_EQ(topo.comm_level({0, 64}), CommLevel::kCrossRack);
    EXPECT_EQ(topo.server_span({0, 1, 8, 16}), 3);
    EXPECT_EQ(topo.rack_span({0, 1, 8, 16}), 1);
    EXPECT_EQ(topo.rack_span({0, 127}), 2);
}

TEST(Topology, SpansCountDistinctServersAndRacksOfSortedIds)
{
    Topology topo(TopologySpec::testbed_128());
    EXPECT_EQ(topo.server_span({}), 0);
    EXPECT_EQ(topo.rack_span({}), 0);
    EXPECT_EQ(topo.server_span({37}), 1);
    EXPECT_EQ(topo.rack_span({37}), 1);
    EXPECT_EQ(topo.server_span({8, 9, 10, 11, 12, 13, 14, 15}), 1);
    EXPECT_EQ(topo.rack_span({8, 9, 10, 11, 12, 13, 14, 15}), 1);
    // Last GPU of rack 0 and first of rack 1 are adjacent ids.
    EXPECT_EQ(topo.server_span({0, 8, 63, 64, 127}), 5);
    EXPECT_EQ(topo.rack_span({0, 8, 63, 64, 127}), 2);
    EXPECT_EQ(topo.server_span({63, 64}), 2);
    EXPECT_EQ(topo.rack_span({63, 64}), 2);
}

TEST(Topology, SpansAt2048GpusMatchDistinctCounts)
{
    Topology topo(TopologySpec::with_total_gpus(2048));
    ASSERT_EQ(topo.num_servers(), 256);
    ASSERT_EQ(topo.num_racks(), 32);
    std::vector<GpuCount> all(2048);
    std::iota(all.begin(), all.end(), 0);
    EXPECT_EQ(topo.server_span(all), 256);
    EXPECT_EQ(topo.rack_span(all), 32);

    // Random sorted subsets against a std::set of the same ids.
    Rng rng(2048);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<GpuCount> gpus;
        const double keep = rng.uniform_real(0.0, 0.05);
        for (GpuCount g = 0; g < topo.total_gpus(); ++g) {
            if (rng.flip(keep))
                gpus.push_back(g);
        }
        std::set<int> servers, racks;
        for (GpuCount g : gpus) {
            servers.insert(topo.server_of(g));
            racks.insert(topo.rack_of(g));
        }
        EXPECT_EQ(topo.server_span(gpus), static_cast<int>(servers.size()));
        EXPECT_EQ(topo.rack_span(gpus), static_cast<int>(racks.size()));
    }
}

TEST(Topology, CompactCommLevel)
{
    Topology topo(TopologySpec::testbed_128());
    EXPECT_EQ(topo.compact_comm_level(1), CommLevel::kSingleGpu);
    EXPECT_EQ(topo.compact_comm_level(8), CommLevel::kIntraServer);
    EXPECT_EQ(topo.compact_comm_level(16), CommLevel::kIntraRack);
    EXPECT_EQ(topo.compact_comm_level(64), CommLevel::kIntraRack);
    EXPECT_EQ(topo.compact_comm_level(128), CommLevel::kCrossRack);
}

TEST(Topology, BandwidthHierarchy)
{
    Topology topo(TopologySpec::testbed_128());
    double intra = topo.bandwidth_gbps(CommLevel::kIntraServer);
    double rack_full = topo.bandwidth_gbps(CommLevel::kIntraRack, 8.0);
    double rack_single = topo.bandwidth_gbps(CommLevel::kIntraRack, 1.0);
    double cross = topo.bandwidth_gbps(CommLevel::kCrossRack, 8.0);
    EXPECT_GT(intra, rack_full);
    EXPECT_GT(rack_full, rack_single);
    EXPECT_GT(rack_full, cross);
    // A job driving more GPUs per server gets proportionally more NICs.
    EXPECT_NEAR(rack_full / rack_single, 8.0, 1e-9);
}

TEST(Topology, WithTotalGpusCoversRequest)
{
    for (int g : {1, 7, 8, 64, 100, 128, 500}) {
        Topology topo(TopologySpec::with_total_gpus(g));
        EXPECT_GE(topo.total_gpus(), g) << g;
        EXPECT_LE(topo.gpus_per_server(), 8) << g;
    }
}

TEST(Topology, CommLevelNames)
{
    EXPECT_EQ(comm_level_name(CommLevel::kSingleGpu), "single-gpu");
    EXPECT_EQ(comm_level_name(CommLevel::kCrossRack), "cross-rack");
}

TEST(Topology, InvalidSpecDies)
{
    TopologySpec spec;
    spec.num_racks = 0;
    EXPECT_DEATH(Topology topo(spec), "invalid topology");
}

}  // namespace
}  // namespace ef
