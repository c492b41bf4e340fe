/**
 * @file
 * Topology-aware job placement with buddy-style defragmentation
 * (paper §4.3).
 *
 * The placement manager owns the assignment of jobs to concrete GPU
 * ids. ElasticFlow places jobs with Best-Fit over the topology tree
 * (the subtree whose idle GPU count is closest to the request) and,
 * when power-of-two worker counts are used, falls back to a
 * migration-based repacking that is guaranteed to succeed whenever
 * enough idle GPUs exist anywhere in the cluster. Baseline schedulers
 * use the non-migrating strategies, which can fragment — exactly the
 * effect the paper's §3.2 motivates.
 */
#ifndef EF_CLUSTER_PLACEMENT_H_
#define EF_CLUSTER_PLACEMENT_H_

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/types.h"
#include "recover/fields.h"

namespace ef {

/** How GPU ids are chosen for a job. */
enum class PlacementStrategy {
    kBestFitCompact,  ///< ElasticFlow: best-fit subtree, buddy repack
    kFirstFit,        ///< naive: lowest free GPU ids, may fragment
    kScatter,         ///< adversarial: round-robin across servers
};

/** A job relocation produced by the migrating repack: `job` moves to
 *  the GPUs `to`. */
struct Migration
{
    JobId job = kInvalidJob;
    std::vector<GpuCount> to;
};

/** Outcome of a placement request. */
struct PlacementResult
{
    bool ok = false;
    std::vector<GpuCount> gpus;        ///< sorted GPU ids for the job
    std::vector<Migration> migrations; ///< relocations applied first
};

/** Tracks which job owns which GPU and serves placement requests. */
class PlacementManager
{
  public:
    explicit PlacementManager(const Topology *topology);

    const Topology &topology() const { return *topology_; }

    GpuCount total_gpus() const;
    /** Up GPUs in servers that are currently up (a counter). */
    GpuCount available_gpus() const { return available_gpus_; }
    /** Idle up GPUs in servers that are currently up (a counter). */
    GpuCount idle_gpus() const { return idle_gpus_; }
    GpuCount used_gpus() const { return available_gpus_ - idle_gpus_; }

    bool is_placed(JobId job) const;
    /** Sorted GPU ids of a placed job. */
    const std::vector<GpuCount> &gpus_of(JobId job) const;
    GpuCount size_of(JobId job) const;
    int server_span(JobId job) const;
    CommLevel comm_level_of(JobId job) const;
    std::vector<JobId> placed_jobs() const;

    /** Idle GPUs in one server (0 while the server is down). */
    GpuCount free_in_server(int server) const;

    /**
     * Mark a server failed/repaired (§4.4 "Node failures"). A server
     * must be empty before it can be taken down — the simulator
     * releases its jobs first. Down servers hold no placements and
     * do not count toward idle or available capacity.
     */
    void set_server_available(int server, bool available);
    bool server_available(int server) const;

    /**
     * Mark one GPU failed/repaired (ECC-style single-GPU fault): finer
     * grained than a server failure, so only placements using that GPU
     * are affected. The GPU must be unowned before it can be taken
     * down — the caller evicts its owner first. Down GPUs never serve
     * placements and do not count toward idle or available capacity.
     */
    void set_gpu_available(GpuCount gpu, bool available);
    bool gpu_available(GpuCount gpu) const;

    /** Owning job of one GPU (kInvalidJob when free or down). */
    JobId owner_of(GpuCount gpu) const;

    /**
     * Place @p job on @p size GPUs. The job must not currently be
     * placed. With kBestFitCompact and @p allow_migration, power-of-two
     * requests succeed whenever idle_gpus() >= size; the result then
     * lists the migrations (whole-job relocations) performed to
     * defragment. Other strategies never migrate.
     */
    PlacementResult place(JobId job, GpuCount size,
                          PlacementStrategy strategy,
                          bool allow_migration);

    /**
     * Change a placed job to @p new_size GPUs (elastic scaling). Keeps
     * as many of the job's current GPUs as the strategy allows. The
     * simulator charges the scaling overhead; this only rewires
     * ownership.
     */
    PlacementResult resize(JobId job, GpuCount new_size,
                           PlacementStrategy strategy,
                           bool allow_migration);

    /**
     * place() and resize() through repack_with_reference, the original
     * global bin-to-server matching over per-job server rows. Kept as
     * the oracle of tests/test_placement_equivalence.cc and the
     * micro-benchmark's baseline; nothing selects it at run time.
     */
    PlacementResult place_reference(JobId job, GpuCount size,
                                    PlacementStrategy strategy,
                                    bool allow_migration);
    PlacementResult resize_reference(JobId job, GpuCount new_size,
                                     PlacementStrategy strategy,
                                     bool allow_migration);

    /** Free all GPUs of a placed job. */
    void release(JobId job);

    /**
     * Persistent state (recover/fields.h): the per-GPU owner and
     * availability tables, then per-server availability. Every row is
     * sealed, so each table hashes as one digest that assign, unassign
     * and the availability setters keep current — a state hash costs
     * O(1) here, not O(GPUs). A decoded table must match the topology's
     * size; everything else is derived and rebuilt on decode.
     */
    template <class V>
    void
    fields(V &v)
    {
        const auto sealed = [](const auto &) { return false; };
        v.split(gpu_owner_, sealed, owner_digest_);
        v.split(gpu_up_, sealed, gpu_up_digest_);
        v.split(server_up_, sealed, server_up_digest_);
        v.after_decode([this] { return rebuild(); });
    }

    /** Internal consistency check (tests call this after mutations). */
    void validate() const;

  private:
    /** Re-derive the per-job lists and the counters from the per-GPU
     *  and per-server tables; false on an inconsistent table. */
    bool rebuild();
    /** available_gpus() and idle_gpus() by a scan over the servers:
     *  what the counters must equal. */
    std::pair<GpuCount, GpuCount> scan_capacity() const;
    void assign(JobId job, std::vector<GpuCount> gpus);
    void unassign(JobId job);
    /** The one write path of gpu_owner_ (keeps owner_digest_). */
    void set_owner(GpuCount gpu, JobId owner);

    std::optional<std::vector<GpuCount>>
    try_direct(GpuCount size, PlacementStrategy strategy) const;

    /** Best-fit without migration; nullopt when impossible. */
    std::optional<std::vector<GpuCount>> try_best_fit(GpuCount size) const;
    std::optional<std::vector<GpuCount>> try_first_fit(GpuCount size) const;
    std::optional<std::vector<GpuCount>> try_scatter(GpuCount size) const;

    /** One of the two repack implementations below. */
    using Repack = bool (PlacementManager::*)(JobId, GpuCount,
                                              PlacementResult *);
    PlacementResult place_via(JobId job, GpuCount size,
                              PlacementStrategy strategy,
                              bool allow_migration, Repack repack);
    PlacementResult resize_via(JobId job, GpuCount new_size,
                               PlacementStrategy strategy,
                               bool allow_migration, Repack repack);

    struct BinPacking;
    /** The packing half of a buddy repack: jobs into abstract server
     *  bins; false when the repack does not apply or cannot pack. */
    bool pack_bins(JobId new_job, GpuCount size, BinPacking *pack) const;
    /** Full buddy repack; fills result on success. Matches bins to
     *  servers per rack over a precomputed overlap matrix. */
    bool repack_with(JobId new_job, GpuCount size, PlacementResult *result);
    /** The same repack by the original global greedy (the oracle). */
    bool repack_with_reference(JobId new_job, GpuCount size,
                               PlacementResult *result);
    /** Apply result->migrations, then assign the new job its GPUs. */
    void commit_repack(JobId new_job, PlacementResult *result);

    const Topology *topology_;
    std::vector<JobId> gpu_owner_;              // size total_gpus
    std::map<JobId, std::vector<GpuCount>> job_gpus_;
    /** Unowned AND individually-up GPUs per server. */
    std::vector<GpuCount> free_per_server_;
    std::vector<bool> server_up_;
    std::vector<bool> gpu_up_;                  // size total_gpus
    std::vector<GpuCount> down_per_server_;
    GpuCount down_gpus_ = 0;
    /** available_gpus() and idle_gpus(), kept current by assign,
     *  unassign and the availability setters. */
    GpuCount available_gpus_ = 0;
    GpuCount idle_gpus_ = 0;
    /** Hash caches of the three tables above (recover::SplitCache). */
    recover::SplitCache owner_digest_;
    recover::SplitCache gpu_up_digest_;
    recover::SplitCache server_up_digest_;
};

}  // namespace ef

#endif  // EF_CLUSTER_PLACEMENT_H_
