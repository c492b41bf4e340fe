#include "defrag/defrag.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/fragmentation.h"
#include "common/check.h"
#include "obs/metrics.h"

namespace ef {
namespace defrag {
namespace {

/** Per-server GPU counts of one job; index = server id. */
using Row = std::vector<GpuCount>;

GpuCount
row_size(const Row &row)
{
    GpuCount total = 0;
    for (GpuCount c : row)
        total += c;
    return total;
}

int
row_span(const Row &row)
{
    int span = 0;
    for (GpuCount c : row)
        if (c > 0)
            ++span;
    return span;
}

PlacementShape
shape_from_row(const Topology &topology, const Row &row)
{
    PlacementShape shape;
    shape.workers = row_size(row);
    shape.server_span = row_span(row);
    shape.rack_span = 0;
    int last_rack = -1;
    // Servers ascend, and rack ids ascend with server ids, so
    // counting rack transitions over occupied servers counts racks.
    for (int s = 0; s < static_cast<int>(row.size()); ++s) {
        if (row[static_cast<std::size_t>(s)] <= 0)
            continue;
        const int rack = topology.rack_of_server(s);
        if (rack != last_rack) {
            ++shape.rack_span;
            last_rack = rack;
        }
    }
    if (shape.server_span == 0)
        shape.server_span = 1;
    if (shape.rack_span == 0)
        shape.rack_span = 1;
    return shape;
}

/** Buddy external fragmentation of a per-server free vector. */
double
frag_of_free(const std::vector<GpuCount> &free)
{
    GpuCount idle = 0;
    GpuCount usable = 0;
    for (GpuCount f : free) {
        idle += f;
        usable += buddy_block_floor(f);
    }
    if (idle <= 0)
        return 0.0;
    return 1.0 - static_cast<double>(usable) / static_cast<double>(idle);
}

/** Checkpoint+restore cost units for relocating one job. */
double
move_cost_units(GpuCount size)
{
    return static_cast<double>(size);
}

}  // namespace

Defragmenter::Defragmenter(const DefragConfig &config,
                           const Topology *topology, const PerfModel *perf)
    : config_(config), topology_(topology), perf_(perf),
      rng_(config.seed), governor_(config.governor)
{
    EF_CHECK(topology_ != nullptr && perf_ != nullptr);
    EF_CHECK_MSG(config_.budget_units_per_round > 0.0,
                 "defragmenter built with a zero budget");
    EF_CHECK(config_.max_steps > 0);
    EF_CHECK(config_.cooling > 0.0 && config_.cooling <= 1.0);
}

bool
Defragmenter::try_begin_round(Time now)
{
    return governor_.try_acquire(now);
}

double
Defragmenter::objective(const std::vector<Row> &rows,
                        const std::vector<DefragJob> &jobs,
                        const std::vector<GpuCount> &free) const
{
    double total = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const GpuCount size = row_size(rows[j]);
        const double compact = perf_->compact_throughput(
            jobs[j].model, jobs[j].global_batch, size);
        const double actual = perf_->throughput(
            jobs[j].model, jobs[j].global_batch,
            shape_from_row(*topology_, rows[j]));
        if (compact > 0.0)
            total += 1.0 - actual / compact;
    }
    return total + config_.frag_weight * frag_of_free(free);
}

DefragPlan
Defragmenter::plan_round(const PlacementManager &placement,
                         const std::vector<DefragJob> &jobs)
{
    ++rounds_;
    DefragPlan plan;

    const int num_servers = topology_->num_servers();
    const std::size_t n = jobs.size();

    // --- build the abstract search state -----------------------------
    std::vector<Row> rows(n);
    std::vector<GpuCount> sizes(n, 0);
    std::vector<double> compact_tpt(n, 0.0);
    std::vector<double> loss(n, 0.0);
    double sum_loss = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        EF_CHECK(placement.is_placed(jobs[j].id));
        if (j > 0)
            EF_CHECK_MSG(jobs[j].id > jobs[j - 1].id,
                         "defrag jobs must ascend by id");
        rows[j].assign(static_cast<std::size_t>(num_servers), 0);
        for (GpuCount g : placement.gpus_of(jobs[j].id))
            ++rows[j][static_cast<std::size_t>(topology_->server_of(g))];
        sizes[j] = row_size(rows[j]);
        compact_tpt[j] = perf_->compact_throughput(
            jobs[j].model, jobs[j].global_batch, sizes[j]);
    }
    std::vector<GpuCount> free(static_cast<std::size_t>(num_servers), 0);
    for (int s = 0; s < num_servers; ++s)
        free[static_cast<std::size_t>(s)] = placement.free_in_server(s);

    // Delta-evaluation oracle: the loss of one job from its row.
    auto loss_of = [&](std::size_t j, const Row &row) {
        if (compact_tpt[j] <= 0.0)
            return 0.0;
        const double actual = perf_->throughput(
            jobs[j].model, jobs[j].global_batch,
            shape_from_row(*topology_, row));
        return 1.0 - actual / compact_tpt[j];
    };
    for (std::size_t j = 0; j < n; ++j) {
        loss[j] = loss_of(j, rows[j]);
        sum_loss += loss[j];
    }

    const std::vector<Row> initial_rows = rows;
    std::vector<bool> moved(n, false);
    double moved_cost = 0.0;
    double obj = sum_loss + config_.frag_weight * frag_of_free(free);
    plan.objective_before = obj;

    // Best feasible state seen so far (starts at the initial layout).
    std::vector<Row> best_rows = rows;
    double best_obj = obj;
    double best_cost = 0.0;

    // Replace job j's row; keeps free/loss/moved bookkeeping in sync.
    auto set_row = [&](std::size_t j, const Row &next) {
        for (int s = 0; s < num_servers; ++s) {
            const std::size_t si = static_cast<std::size_t>(s);
            free[si] += rows[j][si] - next[si];
        }
        rows[j] = next;
        sum_loss -= loss[j];
        loss[j] = loss_of(j, rows[j]);
        sum_loss += loss[j];
        const bool now_moved = rows[j] != initial_rows[j];
        if (now_moved != moved[j]) {
            moved[j] = now_moved;
            moved_cost += now_moved ? move_cost_units(sizes[j])
                                    : -move_cost_units(sizes[j]);
        }
    };

    // --- simulated annealing over the move set -----------------------
    double temperature = config_.init_temperature;
    for (int step = 0; n > 0 && step < config_.max_steps; ++step) {
        ++plan.steps;
        const std::int64_t kind = rng_.uniform_int(0, 2);
        const std::size_t j = static_cast<std::size_t>(
            rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));

        // Proposals mutate copies; `touched` lists (job, old row)
        // pairs so a rejected candidate reverts exactly.
        std::vector<std::pair<std::size_t, Row>> touched;
        bool feasible = false;
        if (kind == 0) {
            // relocate: whole job into one server.
            std::vector<int> candidates;
            for (int s = 0; s < num_servers; ++s) {
                const std::size_t si = static_cast<std::size_t>(s);
                if (free[si] + rows[j][si] < sizes[j])
                    continue;
                if (rows[j][si] == sizes[j])
                    continue;  // no-op: already all in s
                candidates.push_back(s);
            }
            if (!candidates.empty()) {
                const std::size_t pick = static_cast<std::size_t>(
                    rng_.uniform_int(
                        0,
                        static_cast<std::int64_t>(candidates.size()) - 1));
                Row next(static_cast<std::size_t>(num_servers), 0);
                next[static_cast<std::size_t>(candidates[pick])] = sizes[j];
                touched.emplace_back(j, rows[j]);
                set_row(j, next);
                feasible = true;
            }
        } else if (kind == 1) {
            // compact: fold the smallest chunk into another of the
            // job's servers, shrinking span by one.
            int chunk_server = -1;
            for (int s = 0; s < num_servers; ++s) {
                const std::size_t si = static_cast<std::size_t>(s);
                if (rows[j][si] <= 0)
                    continue;
                if (chunk_server < 0 ||
                    rows[j][si] <
                        rows[j][static_cast<std::size_t>(chunk_server)])
                    chunk_server = s;
            }
            if (chunk_server >= 0 && row_span(rows[j]) >= 2) {
                const GpuCount chunk =
                    rows[j][static_cast<std::size_t>(chunk_server)];
                int dest = -1;
                for (int s = 0; s < num_servers; ++s) {
                    const std::size_t si = static_cast<std::size_t>(s);
                    if (s == chunk_server || rows[j][si] <= 0 ||
                        free[si] < chunk)
                        continue;
                    if (dest < 0 ||
                        free[si] > free[static_cast<std::size_t>(dest)])
                        dest = s;
                }
                if (dest >= 0) {
                    Row next = rows[j];
                    next[static_cast<std::size_t>(chunk_server)] = 0;
                    next[static_cast<std::size_t>(dest)] += chunk;
                    touched.emplace_back(j, rows[j]);
                    set_row(j, next);
                    feasible = true;
                }
            }
        } else {
            // swap: exchange rows of two equal-size jobs. Per-server
            // totals are unchanged, so a swap is always feasible.
            std::vector<std::size_t> partners;
            for (std::size_t k = 0; k < n; ++k)
                if (k != j && sizes[k] == sizes[j] && rows[k] != rows[j])
                    partners.push_back(k);
            if (!partners.empty()) {
                const std::size_t k = partners[static_cast<std::size_t>(
                    rng_.uniform_int(
                        0,
                        static_cast<std::int64_t>(partners.size()) - 1))];
                const Row row_j = rows[j];
                const Row row_k = rows[k];
                touched.emplace_back(j, row_j);
                touched.emplace_back(k, row_k);
                set_row(j, row_k);
                set_row(k, row_j);
                feasible = true;
            }
        }

        if (feasible) {
            const double next_obj =
                sum_loss + config_.frag_weight * frag_of_free(free);
            const double delta = next_obj - obj;
            bool accept;
            if (moved_cost >
                config_.budget_units_per_round + 1e-9) {
                // Over budget: never acceptable, whatever the gain.
                accept = false;
            } else if (delta < 0.0) {
                accept = true;
            } else {
                accept = rng_.uniform_real(0.0, 1.0) <
                         std::exp(-delta / std::max(temperature, 1e-12));
            }
            if (accept) {
                obj = next_obj;
                ++plan.accepted;
                if (obj < best_obj - 1e-12) {
                    best_rows = rows;
                    best_obj = obj;
                    best_cost = moved_cost;
                }
            } else {
                // Revert in reverse order so swaps unwind cleanly.
                for (auto it = touched.rbegin(); it != touched.rend();
                     ++it)
                    set_row(it->first, it->second);
            }
        }
        temperature *= config_.cooling;
    }

    plan.objective_after = plan.objective_before;
    if (best_obj >= plan.objective_before - config_.min_gain)
        return plan;  // no committable improvement

    // --- materialize the best layout into concrete GPU ids ----------
    // Pool = free GPUs plus everything owned by moved jobs; moved jobs
    // then draw from it ascending, preferring their own previous ids
    // so unchanged chunks keep their exact GPUs.
    std::vector<std::vector<GpuCount>> pool(
        static_cast<std::size_t>(num_servers));
    for (GpuCount g = 0; g < topology_->total_gpus(); ++g) {
        const int s = topology_->server_of(g);
        if (placement.owner_of(g) == kInvalidJob &&
            placement.gpu_available(g) && placement.server_available(s))
            pool[static_cast<std::size_t>(s)].push_back(g);
    }
    std::vector<std::size_t> moved_jobs;
    for (std::size_t j = 0; j < n; ++j) {
        if (best_rows[j] == initial_rows[j])
            continue;
        moved_jobs.push_back(j);
        for (GpuCount g : placement.gpus_of(jobs[j].id))
            pool[static_cast<std::size_t>(topology_->server_of(g))]
                .push_back(g);
    }
    for (auto &ids : pool)
        std::sort(ids.begin(), ids.end());

    for (std::size_t j : moved_jobs) {
        const std::vector<GpuCount> &from = placement.gpus_of(jobs[j].id);
        std::vector<GpuCount> to;
        for (int s = 0; s < num_servers; ++s) {
            const std::size_t si = static_cast<std::size_t>(s);
            GpuCount want = best_rows[j][si];
            if (want <= 0)
                continue;
            auto take = [&](bool own_only) {
                for (std::size_t i = 0;
                     want > 0 && i < pool[si].size();) {
                    const GpuCount g = pool[si][i];
                    const bool own = std::binary_search(
                        from.begin(), from.end(), g);
                    if (!own_only || own) {
                        to.push_back(g);
                        pool[si].erase(
                            pool[si].begin() +
                            static_cast<std::ptrdiff_t>(i));
                        --want;
                    } else {
                        ++i;
                    }
                }
            };
            take(true);
            take(false);
            EF_CHECK_MSG(want == 0, "defrag pool underflow in server "
                                        << s << " for job "
                                        << jobs[j].id);
        }
        std::sort(to.begin(), to.end());
        Migration m;
        m.job = jobs[j].id;
        m.from = from;
        m.to = to;
        plan.moves.push_back(m);
    }

    plan.objective_after = best_obj;
    plan.cost_units = best_cost;
    budget_spent_units_ += best_cost;
    moves_committed_ += plan.moves.size();
    last_batch_ = plan.moves;
    obs::count("defrag.moves",
               static_cast<std::uint64_t>(plan.moves.size()));
    return plan;
}

}  // namespace defrag
}  // namespace ef
