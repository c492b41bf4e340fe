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

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "cluster/buddy.h"
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

    /** Sum over placed jobs of the servers each spans beyond the
     *  ceil(size / gpus_per_server) a compact placement needs, and the
     *  number of jobs with any such excess (counters, DESIGN.md §5). */
    int total_span_excess() const { return span_excess_; }
    int jobs_with_span_excess() const { return jobs_with_span_excess_; }
    int num_placed() const { return static_cast<int>(job_gpus_.size()); }

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
    /** total_span_excess() and jobs_with_span_excess() by a scan over
     *  the placed jobs: what the counters must equal. */
    std::pair<int, int> scan_span_excess() const;
    void assign(JobId job, std::vector<GpuCount> gpus);
    void unassign(JobId job);
    /** Give @p job the sorted ids @p gpus, or free them: the owner
     *  table and the capacity and span-excess counters. The caller
     *  keeps job_gpus_. */
    void own(JobId job, const std::vector<GpuCount> &gpus);
    void disown(const std::vector<GpuCount> &gpus);
    /** Span excess of a @p size -GPU job that spans @p span servers. */
    int excess_of(GpuCount size, int span) const;
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

    /** The packing half of a buddy repack: jobs into abstract server
     *  bins (scratch_.bins); false when the repack does not apply or
     *  cannot pack. */
    bool pack_bins(JobId new_job, GpuCount size);
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
    /** total_span_excess() and jobs_with_span_excess(), kept current by
     *  assign and unassign. */
    int span_excess_ = 0;
    int jobs_with_span_excess_ = 0;
    /** Hash caches of the three tables above (recover::SplitCache). */
    recover::SplitCache owner_digest_;
    recover::SplitCache gpu_up_digest_;
    recover::SplitCache server_up_digest_;

    /** GPUs of one job (by its RepackScratch::ids index) in one bin or
     *  server. */
    struct Share
    {
        std::uint32_t job = 0;
        GpuCount gpus = 0;
    };
    /** GPUs one job still needs in one server. */
    struct Want
    {
        int server = 0;
        GpuCount gpus = 0;
    };
    /**
     * Working memory of the buddy repack, kept between calls so that a
     * repack allocates only its result. Groups are flat arrays with
     * offsets: bin b's shares are bins[bin_begin[b], bin_begin[b + 1]).
     * Bins are grouped per rack: rack r owns bins [r * servers_per_rack,
     * (r + 1) * servers_per_rack), and a bin is only ever matched to a
     * server of its own rack. Everything is sized by the servers and
     * the placed jobs, except `fate`, one byte per GPU. Not persistent
     * state: never journaled or hashed.
     */
    struct RepackScratch
    {
        // pack_bins
        /** Every placed job plus the new one, ascending id: the index
         *  the other arrays name jobs by, and each one's current GPUs
         *  (null for the new job; valid during one call only). */
        std::vector<JobId> ids;
        std::vector<const std::vector<GpuCount> *> held;
        /** Jobs to pack by index: big ones sized in whole servers. */
        std::vector<PackItem> bigs;
        std::vector<PackItem> smalls;
        std::vector<int> rack_free;
        std::vector<GpuCount> bin_used;
        /** down_bins[k]: the empty sentinel bin reserved in the rack of
         *  the k-th down server (ascending server index). */
        std::vector<int> down_bins;
        /** (bin, share) in packing order. */
        std::vector<std::pair<int, Share>> packed;
        /** Each bin's shares, ascending job id. */
        std::vector<std::uint32_t> bin_begin;
        std::vector<Share> bins;
        // repack_with
        /** Each server's current shares, ascending job id. */
        std::vector<std::uint32_t> server_begin;
        std::vector<Share> on_server;
        std::vector<int> bin_to_server;
        std::vector<int> server_to_bin;
        std::vector<GpuCount> overlap;
        /** Group k: the GPUs job ids[k] still needs per server under
         *  the new packing, ascending server. */
        std::vector<std::uint32_t> want_begin;
        std::vector<Want> desired;
        /** Per GPU, set per call: unclaimed by the new layout, kept by
         *  its current owner, or handed out to a job that moves in. */
        std::vector<std::uint8_t> fate;
    };
    RepackScratch scratch_;
};

}  // namespace ef

#endif  // EF_CLUSTER_PLACEMENT_H_
