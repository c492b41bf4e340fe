/**
 * @file
 * Cluster fragmentation metrics (paper §3.2 motivation).
 *
 * ElasticFlow's buddy allocation is greedy first-fit; under churn the
 * idle capacity splinters across servers until new jobs can only be
 * placed cross-server, which the paper measures at up to ≈2.17×
 * throughput loss for ResNet50. Two complementary views quantify
 * that damage:
 *
 *  - Buddy external fragmentation: the fraction of idle GPUs that are
 *    NOT part of a per-server power-of-two buddy block. A server with
 *    5 idle GPUs contributes a usable block of 4; the stranded
 *    remainder cannot serve a power-of-two request without spanning
 *    servers. 0 = every idle GPU sits in a maximal buddy block,
 *    1 = all idle capacity is stranded. Defined as 0 when the cluster
 *    has no idle GPUs.
 *
 *  - Cross-server span excess: for each placed job, the number of
 *    servers it touches beyond the minimum (ceil(size /
 *    gpus_per_server)) that a fully compacted placement would need.
 *    Summed over jobs this counts how many avoidable NIC-bound
 *    boundaries the current layout pays for.
 *
 * The simulator samples both at every planning round. The span half
 * reads counters the placement manager keeps as jobs are assigned and
 * released, so a sample costs O(servers) for the buddy half and no
 * walk over the placed jobs; scanned_fragmentation_stats() recomputes
 * everything from the layout and is the oracle tests hold it to.
 */
#ifndef EF_CLUSTER_FRAGMENTATION_H_
#define EF_CLUSTER_FRAGMENTATION_H_

#include "cluster/placement.h"
#include "common/types.h"

namespace ef {

/** Snapshot of the cluster's fragmentation state. */
struct FragmentationStats
{
    /** Idle GPUs in up servers. */
    GpuCount idle_gpus = 0;
    /** Idle GPUs usable as per-server power-of-two buddy blocks. */
    GpuCount buddy_usable_gpus = 0;
    /** 1 - buddy_usable/idle; 0 when the cluster is full. */
    double buddy_external_frag = 0.0;
    /** Largest per-server buddy block currently available. */
    GpuCount largest_buddy_block = 0;
    /** Number of placed jobs. */
    int placed_jobs = 0;
    /** Sum over jobs of (server_span - minimal compact span). */
    int total_span_excess = 0;
    /** Jobs whose span exceeds their compact span. */
    int jobs_with_span_excess = 0;
};

/** Largest power of two <= @p n (0 for n <= 0). */
GpuCount buddy_block_floor(GpuCount n);

/** Minimal server span of a @p size -GPU job on this topology. */
int compact_server_span(const Topology &topology, GpuCount size);

/** Cross-server span excess of one placed job. */
int span_excess_of(const PlacementManager &placement, JobId job);

/** The fragmentation snapshot of @p placement: an O(servers) scan for
 *  the buddy fields, the manager's counters for the span fields. */
FragmentationStats fragmentation_stats(const PlacementManager &placement);

/** The same snapshot with the span fields scanned job by job. */
FragmentationStats
scanned_fragmentation_stats(const PlacementManager &placement);

}  // namespace ef

#endif  // EF_CLUSTER_FRAGMENTATION_H_
