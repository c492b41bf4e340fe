#include "cluster/topology.h"

#include <algorithm>

#include "common/check.h"

namespace ef {

std::string
comm_level_name(CommLevel level)
{
    switch (level) {
      case CommLevel::kSingleGpu: return "single-gpu";
      case CommLevel::kIntraServer: return "intra-server";
      case CommLevel::kIntraRack: return "intra-rack";
      case CommLevel::kCrossRack: return "cross-rack";
    }
    return "?";
}

TopologySpec
TopologySpec::testbed_128()
{
    TopologySpec spec;
    spec.num_racks = 2;
    spec.servers_per_rack = 8;
    spec.gpus_per_server = 8;
    return spec;
}

TopologySpec
TopologySpec::ethernet_128()
{
    TopologySpec spec = testbed_128();
    spec.intra_server_gbps = 24.0;  // PCIe-only peer access
    spec.per_nic_gbps = 0.6;        // ~40 Gbps Ethernet, one NIC/GPU
    spec.cross_rack_factor = 0.5;
    return spec;
}

TopologySpec
TopologySpec::testbed_32()
{
    TopologySpec spec;
    spec.num_racks = 1;
    spec.servers_per_rack = 4;
    spec.gpus_per_server = 8;
    return spec;
}

TopologySpec
TopologySpec::with_total_gpus(int total_gpus)
{
    EF_FATAL_IF(total_gpus < 1, "cluster needs at least one GPU");
    TopologySpec spec;
    spec.gpus_per_server = std::min(8, total_gpus);
    int servers = (total_gpus + spec.gpus_per_server - 1) /
                  spec.gpus_per_server;
    // Up to 8 servers per rack, balanced racks.
    spec.num_racks = (servers + 7) / 8;
    spec.servers_per_rack = (servers + spec.num_racks - 1) / spec.num_racks;
    return spec;
}

Topology::Topology(TopologySpec spec) : spec_(spec)
{
    EF_FATAL_IF(spec_.num_racks < 1 || spec_.servers_per_rack < 1 ||
                    spec_.gpus_per_server < 1,
                "invalid topology spec");
    num_servers_ = spec_.num_racks * spec_.servers_per_rack;
    total_gpus_ = num_servers_ * spec_.gpus_per_server;
}

namespace {

/** Distinct values of @p key over sorted ids whose key never
 *  decreases, counted as runs. */
template <class Key>
int
count_runs(const std::vector<GpuCount> &gpus, Key key)
{
    EF_DCHECK(std::is_sorted(gpus.begin(), gpus.end()));
    int runs = 0;
    int last = -1;
    for (GpuCount g : gpus) {
        const int k = key(g);
        runs += k != last;
        last = k;
    }
    return runs;
}

}  // namespace

int
Topology::server_span(const std::vector<GpuCount> &gpus) const
{
    return count_runs(gpus, [this](GpuCount g) { return server_of(g); });
}

int
Topology::rack_span(const std::vector<GpuCount> &gpus) const
{
    return count_runs(gpus, [this](GpuCount g) { return rack_of(g); });
}

CommLevel
Topology::comm_level(const std::vector<GpuCount> &gpus) const
{
    if (gpus.size() <= 1)
        return CommLevel::kSingleGpu;
    if (server_span(gpus) == 1)
        return CommLevel::kIntraServer;
    if (rack_span(gpus) == 1)
        return CommLevel::kIntraRack;
    return CommLevel::kCrossRack;
}

CommLevel
Topology::compact_comm_level(GpuCount workers) const
{
    EF_CHECK(workers >= 0);
    if (workers <= 1)
        return CommLevel::kSingleGpu;
    if (workers <= spec_.gpus_per_server)
        return CommLevel::kIntraServer;
    if (workers <= spec_.gpus_per_server * spec_.servers_per_rack)
        return CommLevel::kIntraRack;
    return CommLevel::kCrossRack;
}

double
Topology::bandwidth_gbps(CommLevel level, double gpus_per_server_used) const
{
    double nic_bw = spec_.per_nic_gbps *
                    std::min(gpus_per_server_used,
                             static_cast<double>(spec_.nics_per_server));
    switch (level) {
      case CommLevel::kSingleGpu:
        return spec_.intra_server_gbps;  // unused: no communication
      case CommLevel::kIntraServer:
        return spec_.intra_server_gbps;
      case CommLevel::kIntraRack:
        return nic_bw;
      case CommLevel::kCrossRack:
        return nic_bw * spec_.cross_rack_factor;
    }
    EF_CHECK(false);
    return 0.0;
}

}  // namespace ef
