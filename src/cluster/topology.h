/**
 * @file
 * GPU cluster topology model (paper §4.3, Fig. 5).
 *
 * ElasticFlow organizes GPUs in a multi-layer hierarchy: GPUs within a
 * server share NVLink/PCIe, servers within a rack share the ToR switch,
 * racks share the cluster spine. The only property the scheduler and
 * the performance model need from a placement is the *bottleneck
 * communication level* of the worker set, which this module derives
 * from GPU ids.
 *
 * GPU ids are dense: rack-major then server-major, i.e. GPU g lives in
 * server g / gpus_per_server and rack g / (gpus_per_server *
 * servers_per_rack).
 */
#ifndef EF_CLUSTER_TOPOLOGY_H_
#define EF_CLUSTER_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace ef {

/** Communication locality class of a worker set (best to worst). */
enum class CommLevel {
    kSingleGpu = 0,   ///< one worker, no communication
    kIntraServer = 1, ///< all workers share one server (NVLink/PCIe)
    kIntraRack = 2,   ///< spans servers inside one rack (ToR network)
    kCrossRack = 3,   ///< spans racks (spine network)
};

/** Human-readable name for a CommLevel (bench output). */
std::string comm_level_name(CommLevel level);

/** Static description of a cluster (sizes and link bandwidths). */
struct TopologySpec
{
    int num_racks = 2;
    int servers_per_rack = 8;
    int gpus_per_server = 8;

    /**
     * Effective bandwidths in GB/s available to one job's collective.
     * Communication is modelled hierarchically (like NCCL): an
     * intra-server reduce over NVLink/PCIe plus an inter-server
     * all-reduce whose bandwidth scales with the number of NICs a job
     * can drive per server (the testbed has one HDR HCA per GPU).
     * Defaults are calibrated against the paper's A100 measurements:
     * VGG16 reaches ~76% scaling efficiency at 8 intra-server GPUs
     * (Fig. 2a) and ResNet50's same-server vs. 8-server throughput
     * ratio lands near the paper's 2.17x (Fig. 2b).
     */
    double intra_server_gbps = 45.0;
    double per_nic_gbps = 2.5;
    int nics_per_server = 8;
    /** Cross-rack traffic keeps only this fraction of NIC bandwidth. */
    double cross_rack_factor = 0.6;

    /** Per-ring-step latency (seconds) added per communication hop. */
    double per_step_latency_s = 30e-6;

    /** Persistent state (recover/fields.h); journal only. */
    template <class V>
    void
    fields(V &v)
    {
        v.journal(num_racks, servers_per_rack, gpus_per_server,
                  intra_server_gbps, per_nic_gbps, nics_per_server,
                  cross_rack_factor, per_step_latency_s);
    }

    /** Convenience: paper's testbed (16 servers x 8 A100 = 128 GPUs). */
    static TopologySpec testbed_128();
    /**
     * A commodity 40 Gbps-Ethernet cluster (§3.2 names this tier):
     * same shape as the testbed, ~1/4 the inter-server bandwidth and
     * PCIe-only intra-server links. Placement quality matters much
     * more here — used by the network-sensitivity ablation.
     */
    static TopologySpec ethernet_128();
    /** Small testbed used in Fig. 6(a): 4 servers x 8 = 32 GPUs. */
    static TopologySpec testbed_32();
    /** Arbitrary size: ceil(gpus/8) servers, 8 racks max balance. */
    static TopologySpec with_total_gpus(int total_gpus);
};

/** Immutable topology with id arithmetic and span classification. */
class Topology
{
  public:
    explicit Topology(TopologySpec spec);

    const TopologySpec &spec() const { return spec_; }

    GpuCount total_gpus() const { return total_gpus_; }
    int num_servers() const { return num_servers_; }
    int num_racks() const { return spec_.num_racks; }
    int gpus_per_server() const { return spec_.gpus_per_server; }

    /** Server index of a GPU id. */
    int
    server_of(GpuCount gpu) const
    {
        EF_CHECK(gpu >= 0 && gpu < total_gpus_);
        return gpu / spec_.gpus_per_server;
    }
    /** Rack index of a GPU id. */
    int rack_of(GpuCount gpu) const { return rack_of_server(server_of(gpu)); }
    /** Rack index of a server. */
    int
    rack_of_server(int server) const
    {
        EF_CHECK(server >= 0 && server < num_servers_);
        return server / spec_.servers_per_rack;
    }
    /** First GPU id of a server. */
    GpuCount
    first_gpu_of_server(int server) const
    {
        EF_CHECK(server >= 0 && server < num_servers_);
        return server * spec_.gpus_per_server;
    }

    /** Number of distinct servers a sorted GPU set touches. */
    int server_span(const std::vector<GpuCount> &gpus) const;
    /** Number of distinct racks a sorted GPU set touches. */
    int rack_span(const std::vector<GpuCount> &gpus) const;

    /** Communication level of a sorted worker set (worst link in
     *  use). */
    CommLevel comm_level(const std::vector<GpuCount> &gpus) const;

    /**
     * Communication level of the most compact possible placement for
     * @p workers GPUs on this topology (what buddy allocation
     * guarantees): intra-server when the job fits in one server,
     * intra-rack when it fits in one rack, else cross-rack.
     */
    CommLevel compact_comm_level(GpuCount workers) const;

    /**
     * Effective all-reduce bandwidth (GB/s) at a level, for a job that
     * drives @p gpus_per_server_used GPUs (and hence NICs) in each
     * server it occupies.
     */
    double bandwidth_gbps(CommLevel level,
                          double gpus_per_server_used = 8.0) const;

  private:
    TopologySpec spec_;
    int num_servers_;
    GpuCount total_gpus_;
};

}  // namespace ef

#endif  // EF_CLUSTER_TOPOLOGY_H_
