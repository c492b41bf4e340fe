#include "cluster/fragmentation.h"

#include "common/check.h"

namespace ef {

GpuCount
buddy_block_floor(GpuCount n)
{
    if (n <= 0)
        return 0;
    GpuCount block = 1;
    while (block * 2 <= n)
        block *= 2;
    return block;
}

int
compact_server_span(const Topology &topology, GpuCount size)
{
    EF_CHECK_MSG(size > 0, "compact span of an empty job");
    const int per_server = topology.gpus_per_server();
    return static_cast<int>((size + per_server - 1) / per_server);
}

int
span_excess_of(const PlacementManager &placement, JobId job)
{
    const GpuCount size = placement.size_of(job);
    const int compact =
        compact_server_span(placement.topology(), size);
    const int span = placement.server_span(job);
    return span > compact ? span - compact : 0;
}

namespace {

/** The buddy fields of the snapshot. */
FragmentationStats
buddy_stats(const PlacementManager &placement)
{
    FragmentationStats stats;
    const Topology &topology = placement.topology();
    for (int s = 0; s < topology.num_servers(); ++s) {
        const GpuCount free = placement.free_in_server(s);
        const GpuCount block = buddy_block_floor(free);
        stats.idle_gpus += free;
        stats.buddy_usable_gpus += block;
        if (block > stats.largest_buddy_block)
            stats.largest_buddy_block = block;
    }
    if (stats.idle_gpus > 0) {
        stats.buddy_external_frag =
            1.0 - static_cast<double>(stats.buddy_usable_gpus) /
                      static_cast<double>(stats.idle_gpus);
    }
    return stats;
}

}  // namespace

FragmentationStats
fragmentation_stats(const PlacementManager &placement)
{
    FragmentationStats stats = buddy_stats(placement);
    stats.placed_jobs = placement.num_placed();
    stats.total_span_excess = placement.total_span_excess();
    stats.jobs_with_span_excess = placement.jobs_with_span_excess();
    return stats;
}

FragmentationStats
scanned_fragmentation_stats(const PlacementManager &placement)
{
    FragmentationStats stats = buddy_stats(placement);
    for (JobId job : placement.placed_jobs()) {
        const int excess = span_excess_of(placement, job);
        ++stats.placed_jobs;
        stats.total_span_excess += excess;
        if (excess > 0)
            ++stats.jobs_with_span_excess;
    }
    return stats;
}

}  // namespace ef
