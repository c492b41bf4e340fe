/**
 * @file
 * ef::defrag — search-based background defragmentation with a
 * migration-cost budget (DESIGN.md §14, ROADMAP item 2).
 *
 * ElasticFlow's buddy allocation is greedy first-fit; under churn the
 * cluster fragments until cross-server placements dominate (the paper
 * measures ResNet50 at ≈2.17× throughput on one server vs. eight).
 * The defragmenter is the repo's first optimizer that *searches*
 * rather than greedily fills: a simulated-annealing local search over
 * migration moves, run as a governor-gated background round in the
 * planning loop.
 *
 * Search model. Placement is abstracted to per-server GPU counts (one
 * row per job), because PerfModel throughput depends only on the
 * placement *shape* (workers, server span, rack span) — so candidate
 * moves are evaluated by a cheap delta: recompute the shapes of the
 * touched jobs plus a buddy external-fragmentation term over the
 * per-server free counts. Microseconds per candidate, no concrete GPU
 * ids until commit.
 *
 * Move set (SET-style local search):
 *  - relocate: put a whole job into one server that can hold it
 *    (compact-into-buddy-block),
 *  - compact:  fold a spanning job's smallest chunk into one of its
 *    other servers, shrinking span by one,
 *  - swap:     exchange the rows of two equal-size jobs (always
 *    capacity-feasible: per-server totals are unchanged).
 *
 * Acceptance schedule: classic Metropolis — accept improving moves,
 * accept worsening moves with probability exp(-Δ/T), geometric
 * cooling T ← cooling·T each step.
 *
 * Budget. Every job whose final row differs from its initial row
 * costs `size` cost units (one checkpoint+restore per worker);
 * returning a job to its initial row refunds it. Candidate states
 * whose total batch cost exceeds `budget_units_per_round` are
 * rejected during the search, so a committed round can never exceed
 * the budget and repacking never regresses a deadline by more than
 * the budgeted pause time. The best feasible state is committed only
 * on strict improvement.
 *
 * Determinism contract: the SA stream is an `ef::Rng` whose cursor
 * (and engine state), the governor bucket, the budget ledger and the
 * accepted-move log are all listed in `fields()`, so they are hashed
 * and snapshotted alike: defrag-enabled runs double-run, shard-sweep
 * and crash-recover to byte-identical `state_hash` values.
 */
#ifndef EF_DEFRAG_DEFRAG_H_
#define EF_DEFRAG_DEFRAG_H_

#include <cstdint>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "common/types.h"
#include "serve/governor.h"
#include "workload/model_zoo.h"
#include "workload/perf_model.h"

namespace ef {
namespace defrag {

/** Tuning knobs for the background defragmenter. */
struct DefragConfig
{
    /** Master switch; the simulator also requires a positive budget. */
    bool enabled = false;

    /**
     * Migration-cost budget per round, in checkpoint+restore cost
     * units: moving a job costs its worker count. 0 disables defrag
     * entirely (the simulator then behaves byte-identically to
     * enabled = false).
     */
    double budget_units_per_round = 16.0;

    /** SA proposals evaluated per round. */
    int max_steps = 400;
    /** Initial Metropolis temperature. */
    double init_temperature = 0.25;
    /** Geometric cooling factor applied after every step. */
    double cooling = 0.97;
    /** Minimum objective improvement required to commit a batch. */
    double min_gain = 1e-6;
    /** Weight of the buddy external-fragmentation objective term. */
    double frag_weight = 0.25;

    /** Seed of the dedicated SA stream (independent of the trace). */
    std::uint64_t seed = 0xdef7a60ULL;

    /**
     * Token bucket gating defrag rounds on *simulated* time: at most
     * one background repack per 10 simulated minutes by default, and
     * never a forced round — defrag work is strictly best-effort.
     */
    serve::GovernorConfig governor = {1.0 / 600.0, 1.0, kTimeInfinity};
};

/** What the cost oracle needs to know about one placed job. */
struct DefragJob
{
    JobId id = kInvalidJob;
    DnnModel model = DnnModel::kResNet50;
    int global_batch = 0;
};

/** Result of one defrag round. */
struct DefragPlan
{
    /** Accepted move batch, ascending JobId; empty when no gain. */
    std::vector<Migration> moves;
    /** Objective before / after the batch (lower is better). */
    double objective_before = 0.0;
    double objective_after = 0.0;
    /** Cost units charged against this round's budget. */
    double cost_units = 0.0;
    /** Proposals evaluated / accepted during the search. */
    int steps = 0;
    int accepted = 0;
};

/**
 * The background repacker. One instance lives inside the simulator
 * (null unless enabled with a positive budget); all its mutable state
 * is hashed, snapshotted and journal-replayed.
 */
class Defragmenter
{
  public:
    Defragmenter(const DefragConfig &config, const Topology *topology,
                 const PerfModel *perf);

    const DefragConfig &config() const { return config_; }

    /**
     * Take a round token at simulated time @p now. The caller runs
     * plan_round() only after this returns true, so the RNG advances
     * exactly once per funded round.
     */
    bool try_begin_round(Time now);

    /**
     * One SA round over the current placement. Advances the SA
     * stream, the round counter and — when moves are committed — the
     * budget ledger and accepted-move log. @p jobs must list exactly
     * the placed jobs eligible to move, ascending by id.
     */
    DefragPlan plan_round(const PlacementManager &placement,
                          const std::vector<DefragJob> &jobs);

    /** Rounds planned so far (including empty ones). */
    std::uint64_t rounds() const { return rounds_; }
    /** Total moves committed across all rounds. */
    std::uint64_t moves_committed() const { return moves_committed_; }
    /** Budget ledger: cost units spent across all rounds. */
    double budget_spent_units() const { return budget_spent_units_; }
    /** Accepted move batch of the most recent committing round. */
    const std::vector<Migration> &last_batch() const { return last_batch_; }

    /**
     * Persistent state (recover/fields.h): SA stream, governor bucket,
     * counters, budget ledger and accepted-move log. Folded into the
     * simulator's state hash (as one digest) whenever defrag is on.
     */
    template <class V>
    void
    fields(V &v)
    {
        v(rng_);
        v.digest(governor_);
        v(rounds_, moves_committed_, budget_spent_units_, last_batch_);
    }

  private:
    double objective(const std::vector<std::vector<GpuCount>> &rows,
                     const std::vector<DefragJob> &jobs,
                     const std::vector<GpuCount> &free) const;

    DefragConfig config_;
    const Topology *topology_;
    const PerfModel *perf_;

    /** Dedicated SA stream; cursor + engine state are persistent. */
    Rng rng_;
    /** Round-cadence token bucket over simulated time. */
    serve::ReplanGovernor governor_;
    std::uint64_t rounds_ = 0;
    std::uint64_t moves_committed_ = 0;
    /** Budget ledger: cumulative cost units charged. */
    double budget_spent_units_ = 0.0;
    /** Accepted-move log: the most recent committed batch. */
    std::vector<Migration> last_batch_;
};

}  // namespace defrag
}  // namespace ef

#endif  // EF_DEFRAG_DEFRAG_H_
