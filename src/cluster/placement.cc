#include "cluster/placement.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>

#include "cluster/buddy.h"
#include "common/check.h"
#include "common/math_util.h"
#include "obs/metrics.h"

namespace ef {

PlacementManager::PlacementManager(const Topology *topology)
    : topology_(topology)
{
    EF_CHECK(topology_ != nullptr);
    gpu_owner_.assign(static_cast<std::size_t>(topology_->total_gpus()),
                      kInvalidJob);
    free_per_server_.assign(static_cast<std::size_t>(
                                topology_->num_servers()),
                            topology_->gpus_per_server());
    server_up_.assign(static_cast<std::size_t>(topology_->num_servers()),
                      true);
    gpu_up_.assign(static_cast<std::size_t>(topology_->total_gpus()),
                   true);
    down_per_server_.assign(static_cast<std::size_t>(
                                topology_->num_servers()),
                            0);
    available_gpus_ = topology_->total_gpus();
    idle_gpus_ = available_gpus_;
}

GpuCount
PlacementManager::total_gpus() const
{
    return topology_->total_gpus();
}

std::pair<GpuCount, GpuCount>
PlacementManager::scan_capacity() const
{
    GpuCount available = 0;
    GpuCount idle = 0;
    for (int s = 0; s < topology_->num_servers(); ++s) {
        const auto i = static_cast<std::size_t>(s);
        if (server_up_[i]) {
            available += topology_->gpus_per_server() - down_per_server_[i];
            idle += free_per_server_[i];
        }
    }
    return {available, idle};
}

bool
PlacementManager::is_placed(JobId job) const
{
    return job_gpus_.count(job) > 0;
}

const std::vector<GpuCount> &
PlacementManager::gpus_of(JobId job) const
{
    auto it = job_gpus_.find(job);
    EF_CHECK_MSG(it != job_gpus_.end(), "job " << job << " is not placed");
    return it->second;
}

GpuCount
PlacementManager::size_of(JobId job) const
{
    return static_cast<GpuCount>(gpus_of(job).size());
}

int
PlacementManager::server_span(JobId job) const
{
    return topology_->server_span(gpus_of(job));
}

CommLevel
PlacementManager::comm_level_of(JobId job) const
{
    return topology_->comm_level(gpus_of(job));
}

std::vector<JobId>
PlacementManager::placed_jobs() const
{
    std::vector<JobId> jobs;
    jobs.reserve(job_gpus_.size());
    for (const auto &[job, gpus] : job_gpus_)
        jobs.push_back(job);
    return jobs;
}

GpuCount
PlacementManager::free_in_server(int server) const
{
    EF_CHECK(server >= 0 && server < topology_->num_servers());
    if (!server_up_[static_cast<std::size_t>(server)])
        return 0;
    return free_per_server_[static_cast<std::size_t>(server)];
}

void
PlacementManager::set_server_available(int server, bool available)
{
    EF_CHECK(server >= 0 && server < topology_->num_servers());
    if (!available) {
        // Every GPU must be unowned (free or individually down).
        EF_CHECK_MSG(free_per_server_[static_cast<std::size_t>(server)] +
                             down_per_server_[static_cast<std::size_t>(
                                 server)] ==
                         topology_->gpus_per_server(),
                     "server " << server
                               << " must be drained before going down");
    }
    const auto s = static_cast<std::size_t>(server);
    if (server_up_[s] != available) {
        const GpuCount sign = available ? 1 : -1;
        available_gpus_ +=
            sign * (topology_->gpus_per_server() - down_per_server_[s]);
        idle_gpus_ += sign * free_per_server_[s];
    }
    server_up_digest_.unseal(s, static_cast<bool>(server_up_[s]));
    server_up_[s] = available;
    server_up_digest_.seal(s, available);
}

bool
PlacementManager::server_available(int server) const
{
    EF_CHECK(server >= 0 && server < topology_->num_servers());
    return server_up_[static_cast<std::size_t>(server)];
}

void
PlacementManager::set_gpu_available(GpuCount gpu, bool available)
{
    EF_CHECK(gpu >= 0 && gpu < topology_->total_gpus());
    std::size_t g = static_cast<std::size_t>(gpu);
    std::size_t s = static_cast<std::size_t>(topology_->server_of(gpu));
    if (!available) {
        EF_CHECK_MSG(gpu_owner_[g] == kInvalidJob,
                     "GPU " << gpu
                            << " must be released before going down");
        EF_CHECK_MSG(gpu_up_[g], "GPU " << gpu << " is already down");
        gpu_up_digest_.unseal(g, true);
        gpu_up_[g] = false;
        gpu_up_digest_.seal(g, false);
        --free_per_server_[s];
        ++down_per_server_[s];
        ++down_gpus_;
        if (server_up_[s]) {
            --available_gpus_;
            --idle_gpus_;
        }
    } else {
        EF_CHECK_MSG(!gpu_up_[g], "GPU " << gpu << " is not down");
        gpu_up_digest_.unseal(g, false);
        gpu_up_[g] = true;
        gpu_up_digest_.seal(g, true);
        ++free_per_server_[s];
        --down_per_server_[s];
        --down_gpus_;
        if (server_up_[s]) {
            ++available_gpus_;
            ++idle_gpus_;
        }
    }
}

bool
PlacementManager::gpu_available(GpuCount gpu) const
{
    EF_CHECK(gpu >= 0 && gpu < topology_->total_gpus());
    return gpu_up_[static_cast<std::size_t>(gpu)];
}

JobId
PlacementManager::owner_of(GpuCount gpu) const
{
    EF_CHECK(gpu >= 0 && gpu < topology_->total_gpus());
    return gpu_owner_[static_cast<std::size_t>(gpu)];
}

void
PlacementManager::assign(JobId job, std::vector<GpuCount> gpus)
{
    EF_CHECK(!is_placed(job));
    std::sort(gpus.begin(), gpus.end());
    own(job, gpus);
    job_gpus_[job] = std::move(gpus);
}

void
PlacementManager::unassign(JobId job)
{
    auto it = job_gpus_.find(job);
    EF_CHECK(it != job_gpus_.end());
    disown(it->second);
    job_gpus_.erase(it);
}

void
PlacementManager::own(JobId job, const std::vector<GpuCount> &gpus)
{
    int span = 0;
    std::size_t last = ~std::size_t{0};
    for (GpuCount g : gpus) {
        EF_CHECK_MSG(gpu_owner_[static_cast<std::size_t>(g)] == kInvalidJob,
                     "GPU " << g << " is already owned");
        EF_CHECK_MSG(gpu_up_[static_cast<std::size_t>(g)],
                     "GPU " << g << " is down");
        set_owner(g, job);
        const auto s = static_cast<std::size_t>(topology_->server_of(g));
        --free_per_server_[s];
        if (server_up_[s])
            --idle_gpus_;
        span += s != last;
        last = s;
    }
    const int excess = excess_of(static_cast<GpuCount>(gpus.size()), span);
    span_excess_ += excess;
    jobs_with_span_excess_ += excess > 0;
}

void
PlacementManager::disown(const std::vector<GpuCount> &gpus)
{
    int span = 0;
    std::size_t last = ~std::size_t{0};
    for (GpuCount g : gpus) {
        set_owner(g, kInvalidJob);
        const auto s = static_cast<std::size_t>(topology_->server_of(g));
        ++free_per_server_[s];
        if (server_up_[s])
            ++idle_gpus_;
        span += s != last;
        last = s;
    }
    const int excess = excess_of(static_cast<GpuCount>(gpus.size()), span);
    span_excess_ -= excess;
    jobs_with_span_excess_ -= excess > 0;
}

int
PlacementManager::excess_of(GpuCount size, int span) const
{
    const GpuCount per_server = topology_->gpus_per_server();
    return std::max(
        0, span - static_cast<int>((size + per_server - 1) / per_server));
}

std::pair<int, int>
PlacementManager::scan_span_excess() const
{
    int total = 0;
    int jobs = 0;
    for (const auto &[job, gpus] : job_gpus_) {
        const int excess = excess_of(static_cast<GpuCount>(gpus.size()),
                                     topology_->server_span(gpus));
        total += excess;
        jobs += excess > 0;
    }
    return {total, jobs};
}

void
PlacementManager::set_owner(GpuCount gpu, JobId owner)
{
    const auto g = static_cast<std::size_t>(gpu);
    owner_digest_.unseal(g, gpu_owner_[g]);
    gpu_owner_[g] = owner;
    owner_digest_.seal(g, owner);
}

bool
PlacementManager::rebuild()
{
    // Everything validate() would abort on is a rejection here: a
    // decoded table is input, not a programming error.
    const auto gpus = static_cast<std::size_t>(topology_->total_gpus());
    if (gpu_owner_.size() != gpus || gpu_up_.size() != gpus ||
        server_up_.size() !=
            static_cast<std::size_t>(topology_->num_servers())) {
        return false;  // tables are sized by the topology
    }
    job_gpus_.clear();
    std::fill(free_per_server_.begin(), free_per_server_.end(), 0);
    std::fill(down_per_server_.begin(), down_per_server_.end(), 0);
    down_gpus_ = 0;
    for (std::size_t g = 0; g < gpu_owner_.size(); ++g) {
        const std::size_t s = static_cast<std::size_t>(
            topology_->server_of(static_cast<GpuCount>(g)));
        const JobId owner = gpu_owner_[g];
        if (!gpu_up_[g]) {
            if (owner != kInvalidJob)
                return false;  // a down GPU is necessarily unowned
            ++down_per_server_[s];
            ++down_gpus_;
        } else if (owner == kInvalidJob) {
            ++free_per_server_[s];
        } else {
            if (owner < 0 || !server_up_[s])
                return false;  // a down server holds no placements
            job_gpus_[owner].push_back(static_cast<GpuCount>(g));
        }
    }
    std::tie(available_gpus_, idle_gpus_) = scan_capacity();
    std::tie(span_excess_, jobs_with_span_excess_) = scan_span_excess();
    return true;
}

std::optional<std::vector<GpuCount>>
PlacementManager::try_direct(GpuCount size, PlacementStrategy strategy) const
{
    switch (strategy) {
      case PlacementStrategy::kBestFitCompact:
        return try_best_fit(size);
      case PlacementStrategy::kFirstFit:
        return try_first_fit(size);
      case PlacementStrategy::kScatter:
        return try_scatter(size);
    }
    EF_CHECK(false);
    return std::nullopt;
}

std::optional<std::vector<GpuCount>>
PlacementManager::try_best_fit(GpuCount size) const
{
    const int servers = topology_->num_servers();
    const GpuCount per_server = topology_->gpus_per_server();

    if (size <= per_server) {
        // Best fit: the server whose idle count is closest to (but at
        // least) the request.
        int best = -1;
        for (int s = 0; s < servers; ++s) {
            if (!server_up_[static_cast<std::size_t>(s)])
                continue;
            GpuCount free = free_per_server_[static_cast<std::size_t>(s)];
            if (free < size)
                continue;
            if (best < 0 ||
                free < free_per_server_[static_cast<std::size_t>(best)]) {
                best = s;
            }
        }
        if (best >= 0) {
            std::vector<GpuCount> gpus;
            GpuCount base = topology_->first_gpu_of_server(best);
            for (GpuCount g = base; g < base + per_server; ++g) {
                if (gpu_owner_[static_cast<std::size_t>(g)] ==
                        kInvalidJob &&
                    gpu_up_[static_cast<std::size_t>(g)]) {
                    gpus.push_back(g);
                    if (static_cast<GpuCount>(gpus.size()) == size)
                        return gpus;
                }
            }
        }
        // No single server fits: fall through to the fragmented
        // fullest-first fallback below (the paper's §4.3 scenario —
        // callers that allow migration will repack instead).
    } else {
        // Multi-server job: prefer whole free servers, best-fit by rack
        // (the rack with the fewest spare free servers that still
        // fits).
        std::vector<int> free_servers;
        for (int s = 0; s < servers; ++s) {
            if (!server_up_[static_cast<std::size_t>(s)])
                continue;
            if (free_per_server_[static_cast<std::size_t>(s)] == per_server)
                free_servers.push_back(s);
        }
        int needed_servers = (size + per_server - 1) / per_server;
        if (static_cast<int>(free_servers.size()) >= needed_servers) {
            std::vector<int> per_rack(static_cast<std::size_t>(
                                          topology_->num_racks()), 0);
            for (int s : free_servers)
                ++per_rack[static_cast<std::size_t>(
                    topology_->rack_of_server(s))];
            int best_rack = -1;
            for (int r = 0; r < topology_->num_racks(); ++r) {
                if (per_rack[static_cast<std::size_t>(r)] < needed_servers)
                    continue;
                if (best_rack < 0 ||
                    per_rack[static_cast<std::size_t>(r)] <
                        per_rack[static_cast<std::size_t>(best_rack)]) {
                    best_rack = r;
                }
            }
            std::vector<GpuCount> gpus;
            GpuCount remaining = size;
            auto take_server = [&](int s) {
                GpuCount base = topology_->first_gpu_of_server(s);
                GpuCount take = std::min(remaining, per_server);
                for (GpuCount g = base; g < base + take; ++g)
                    gpus.push_back(g);
                remaining -= take;
            };
            if (best_rack >= 0) {
                for (int s : free_servers) {
                    if (remaining == 0)
                        break;
                    if (topology_->rack_of_server(s) == best_rack)
                        take_server(s);
                }
            } else {
                for (int s : free_servers) {
                    if (remaining == 0)
                        break;
                    take_server(s);
                }
            }
            EF_CHECK(remaining == 0);
            return gpus;
        }
    }

    // Not enough whole free servers: greedily take the fullest-free
    // servers (fewest fragments) if the total suffices.
    if (idle_gpus() < size)
        return std::nullopt;
    std::vector<int> order(static_cast<std::size_t>(servers));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
        return free_per_server_[static_cast<std::size_t>(a)] >
               free_per_server_[static_cast<std::size_t>(b)];
    });
    std::vector<GpuCount> gpus;
    GpuCount remaining = size;
    for (int s : order) {
        if (remaining == 0)
            break;
        if (!server_up_[static_cast<std::size_t>(s)])
            continue;
        GpuCount take = std::min(
            remaining, free_per_server_[static_cast<std::size_t>(s)]);
        if (take == 0)
            continue;
        GpuCount base = topology_->first_gpu_of_server(s);
        for (GpuCount g = base;
             g < base + per_server && take > 0; ++g) {
            if (gpu_owner_[static_cast<std::size_t>(g)] == kInvalidJob &&
                gpu_up_[static_cast<std::size_t>(g)]) {
                gpus.push_back(g);
                --take;
                --remaining;
            }
        }
    }
    EF_CHECK(remaining == 0);
    return gpus;
}

std::optional<std::vector<GpuCount>>
PlacementManager::try_first_fit(GpuCount size) const
{
    if (idle_gpus() < size)
        return std::nullopt;
    std::vector<GpuCount> gpus;
    for (GpuCount g = 0; g < topology_->total_gpus(); ++g) {
        if (!server_up_[static_cast<std::size_t>(
                topology_->server_of(g))]) {
            continue;
        }
        if (gpu_owner_[static_cast<std::size_t>(g)] == kInvalidJob &&
            gpu_up_[static_cast<std::size_t>(g)]) {
            gpus.push_back(g);
            if (static_cast<GpuCount>(gpus.size()) == size)
                return gpus;
        }
    }
    return std::nullopt;
}

std::optional<std::vector<GpuCount>>
PlacementManager::try_scatter(GpuCount size) const
{
    if (idle_gpus() < size)
        return std::nullopt;
    std::vector<GpuCount> gpus;
    std::vector<GpuCount> cursor(static_cast<std::size_t>(
                                     topology_->num_servers()), 0);
    while (static_cast<GpuCount>(gpus.size()) < size) {
        bool progressed = false;
        for (int s = 0; s < topology_->num_servers() &&
                        static_cast<GpuCount>(gpus.size()) < size;
             ++s) {
            if (!server_up_[static_cast<std::size_t>(s)])
                continue;
            GpuCount base = topology_->first_gpu_of_server(s);
            GpuCount &c = cursor[static_cast<std::size_t>(s)];
            while (c < topology_->gpus_per_server()) {
                GpuCount g = base + c;
                ++c;
                if (gpu_owner_[static_cast<std::size_t>(g)] ==
                        kInvalidJob &&
                    gpu_up_[static_cast<std::size_t>(g)]) {
                    gpus.push_back(g);
                    progressed = true;
                    break;
                }
            }
        }
        if (!progressed)
            break;
    }
    if (static_cast<GpuCount>(gpus.size()) != size)
        return std::nullopt;
    return gpus;
}

namespace {

/** Call fn(server, first index, count) for each server's run of the
 *  sorted ids @p gpus, in ascending server order. */
template <class Fn>
void
for_each_server_run(const Topology &topology,
                    const std::vector<GpuCount> &gpus, Fn fn)
{
    for (std::size_t i = 0; i < gpus.size();) {
        const int s = topology.server_of(gpus[i]);
        std::size_t j = i + 1;
        while (j < gpus.size() && topology.server_of(gpus[j]) == s)
            ++j;
        fn(s, i, j - i);
        i = j;
    }
}

/**
 * Group items by a key in [0, keys) into a flat array with offsets:
 * the items of key k land in (*out)[(*begin)[k], (*begin)[k + 1]) in
 * the order visit yields them. visit(emit) calls emit(key, item) for
 * every item, the same way twice: once to count, once to fill.
 */
template <class T, class Visit>
void
group_by_key(std::size_t keys, Visit visit,
             std::vector<std::uint32_t> *begin, std::vector<T> *out)
{
    begin->assign(keys + 1, 0);
    visit([begin](std::size_t key, const T &) { ++(*begin)[key + 1]; });
    for (std::size_t k = 0; k < keys; ++k)
        (*begin)[k + 1] += (*begin)[k];
    out->resize((*begin)[keys]);
    visit([begin, out](std::size_t key, const T &item) {
        (*out)[(*begin)[key]++] = item;
    });
    // Each start has advanced to its group's end: shift them back.
    for (std::size_t k = keys; k > 0; --k)
        (*begin)[k] = (*begin)[k - 1];
    (*begin)[0] = 0;
}

/** Group @p k of a grouped array. */
template <class T>
std::span<T>
group(std::vector<T> &items, const std::vector<std::uint32_t> &begin,
      std::size_t k)
{
    return std::span<T>(items.data() + begin[k], begin[k + 1] - begin[k]);
}

}  // namespace

bool
PlacementManager::pack_bins(JobId new_job, GpuCount size)
{
    const GpuCount per_server = topology_->gpus_per_server();
    if (!is_power_of_two(size) || !is_power_of_two(per_server))
        return false;
    // Individually-down GPUs break the power-of-two bin invariant the
    // buddy packing relies on; direct placement still works around
    // them, so just decline to repack.
    if (down_gpus_ > 0)
        return false;
    if (idle_gpus() < size)
        return false;

    const int n = topology_->num_servers();
    const int num_racks = topology_->num_racks();
    const int servers_per_rack = topology_->spec().servers_per_rack;
    RepackScratch &w = scratch_;

    // Dense job index: every placed job plus the new one, ascending id.
    w.ids.clear();
    w.held.clear();
    bool listed_new = false;
    for (const auto &[job, gpus] : job_gpus_) {
        if (!listed_new && new_job < job) {
            w.ids.push_back(new_job);
            w.held.push_back(nullptr);
            listed_new = true;
        }
        w.ids.push_back(job);
        w.held.push_back(&gpus);
    }
    if (!listed_new) {
        w.ids.push_back(new_job);
        w.held.push_back(nullptr);
    }

    // Split jobs into multi-server ("big") jobs, which need whole
    // servers and should stay rack-local, and single-server ("small")
    // jobs; bail out on shapes buddy packing cannot express.
    w.bigs.clear();
    w.smalls.clear();
    auto classify = [&](std::int64_t job, GpuCount job_size) -> bool {
        if (job_size <= per_server) {
            if (!is_power_of_two(job_size))
                return false;
            w.smalls.push_back(PackItem{job, job_size});
            return true;
        }
        if (job_size % per_server != 0)
            return false;
        w.bigs.push_back(PackItem{job, job_size / per_server});
        return true;
    };
    for (std::uint32_t k = 0; k < w.ids.size(); ++k) {
        const std::vector<GpuCount> *gpus = w.held[k];
        if (!classify(k, gpus == nullptr
                             ? size
                             : static_cast<GpuCount>(gpus->size())))
            return false;
    }

    // Level 1: assign big jobs to racks (best-fit decreasing on whole
    // servers), so their bandwidth matches the compact-placement curve
    // the planner used. A job larger than a rack, or one that cannot
    // fit any single rack, is split across the racks with the most
    // room (it will run at cross-rack bandwidth — the planner's
    // compact_comm_level already says so when the job exceeds a rack).
    auto &rack_free = w.rack_free;
    rack_free.assign(static_cast<std::size_t>(num_racks), servers_per_rack);
    for (int srv = 0; srv < n; ++srv) {
        if (!server_up_[static_cast<std::size_t>(srv)])
            --rack_free[static_cast<std::size_t>(
                topology_->rack_of_server(srv))];
    }
    auto &bin_used = w.bin_used;
    bin_used.assign(static_cast<std::size_t>(n), 0);
    w.packed.clear();
    // Reserve one sentinel bin per down server (nothing packs there;
    // the matching pins it onto the down server itself).
    w.down_bins.clear();
    for (int srv = 0; srv < n; ++srv) {
        if (server_up_[static_cast<std::size_t>(srv)])
            continue;
        int r = topology_->rack_of_server(srv);
        for (int b = r * servers_per_rack; b < (r + 1) * servers_per_rack;
             ++b) {
            if (bin_used[static_cast<std::size_t>(b)] == 0) {
                bin_used[static_cast<std::size_t>(b)] = per_server;
                w.down_bins.push_back(b);
                break;
            }
        }
    }
    auto put = [&](int b, std::int64_t job, GpuCount gpus) {
        w.packed.emplace_back(b, Share{static_cast<std::uint32_t>(job), gpus});
        bin_used[static_cast<std::size_t>(b)] += gpus;
    };
    // Give @p job whole servers in up to @p want empty bins of rack r,
    // lowest bin first; returns how many it got.
    auto fill_rack = [&](int r, int want, std::int64_t job) {
        int got = 0;
        for (int b = r * servers_per_rack;
             b < (r + 1) * servers_per_rack && got < want; ++b) {
            if (bin_used[static_cast<std::size_t>(b)] == 0) {
                put(b, job, per_server);
                ++got;
            }
        }
        return got;
    };
    std::stable_sort(w.bigs.begin(), w.bigs.end(),
                     [](const PackItem &a, const PackItem &b) {
                         if (a.size != b.size)
                             return a.size > b.size;
                         return a.id < b.id;
                     });
    for (const PackItem &big : w.bigs) {
        const int servers = static_cast<int>(big.size);
        int best_rack = -1;
        for (int r = 0; r < num_racks; ++r) {
            if (rack_free[static_cast<std::size_t>(r)] < servers)
                continue;
            if (best_rack < 0 ||
                rack_free[static_cast<std::size_t>(r)] <
                    rack_free[static_cast<std::size_t>(best_rack)]) {
                best_rack = r;
            }
        }
        if (best_rack >= 0) {
            fill_rack(best_rack, servers, big.id);
            rack_free[static_cast<std::size_t>(best_rack)] -= servers;
            continue;
        }
        // Cross-rack split: drain the racks with the most room.
        int remaining = servers;
        while (remaining > 0) {
            int r_most = -1;
            for (int r = 0; r < num_racks; ++r) {
                if (rack_free[static_cast<std::size_t>(r)] == 0)
                    continue;
                if (r_most < 0 ||
                    rack_free[static_cast<std::size_t>(r)] >
                        rack_free[static_cast<std::size_t>(r_most)]) {
                    r_most = r;
                }
            }
            if (r_most < 0)
                return false;  // not enough whole servers anywhere
            const int take = std::min(
                remaining, rack_free[static_cast<std::size_t>(r_most)]);
            remaining -= fill_rack(r_most, take, big.id);
            rack_free[static_cast<std::size_t>(r_most)] -= take;
        }
    }

    // Level 2: first-fit-decreasing of small jobs into the remaining
    // bins (partially filled first — best fit — then empty bins in the
    // rack with the least room, to keep whole servers free for future
    // big jobs). Power-of-two sizes make this packing gap-free.
    std::stable_sort(w.smalls.begin(), w.smalls.end(),
                     [](const PackItem &a, const PackItem &b) {
                         if (a.size != b.size)
                             return a.size > b.size;
                         return a.id < b.id;
                     });
    for (const PackItem &item : w.smalls) {
        int best_bin = -1;
        for (int b = 0; b < n; ++b) {
            GpuCount used = bin_used[static_cast<std::size_t>(b)];
            if (used == 0 || used + item.size > per_server)
                continue;
            if (best_bin < 0 ||
                used > bin_used[static_cast<std::size_t>(best_bin)]) {
                best_bin = b;
            }
        }
        if (best_bin < 0) {
            // Open an empty bin in the fullest rack that still has one.
            int best_rack = -1;
            for (int r = 0; r < num_racks; ++r) {
                if (rack_free[static_cast<std::size_t>(r)] == 0)
                    continue;
                if (best_rack < 0 ||
                    rack_free[static_cast<std::size_t>(r)] <
                        rack_free[static_cast<std::size_t>(best_rack)]) {
                    best_rack = r;
                }
            }
            if (best_rack < 0)
                return false;
            const int end = (best_rack + 1) * servers_per_rack;
            best_bin = best_rack * servers_per_rack;
            while (best_bin < end &&
                   bin_used[static_cast<std::size_t>(best_bin)] != 0)
                ++best_bin;
            EF_CHECK(best_bin < end);
            rack_free[static_cast<std::size_t>(best_rack)] -= 1;
        }
        put(best_bin, item.id, item.size);
    }
    // A job appears at most once per bin, so each bin sorts by job id.
    group_by_key<Share>(
        static_cast<std::size_t>(n),
        [&w](auto emit) {
            for (const auto &[b, share] : w.packed)
                emit(static_cast<std::size_t>(b), share);
        },
        &w.bin_begin, &w.bins);
    for (std::size_t b = 0; b < static_cast<std::size_t>(n); ++b) {
        std::span<Share> bin = group(w.bins, w.bin_begin, b);
        std::sort(bin.begin(), bin.end(),
                  [](const Share &x, const Share &y) { return x.job < y.job; });
    }
    return true;
}

bool
PlacementManager::repack_with(JobId new_job, GpuCount size,
                              PlacementResult *result)
{
    if (!pack_bins(new_job, size))
        return false;
    RepackScratch &w = scratch_;
    const int n = topology_->num_servers();
    const int spr = topology_->spec().servers_per_rack;
    const GpuCount per_server = topology_->gpus_per_server();

    // on_server, group s: (job, GPUs the job holds in server s),
    // ascending job id.
    group_by_key<Share>(
        static_cast<std::size_t>(n),
        [this, &w](auto emit) {
            for (std::uint32_t k = 0; k < w.ids.size(); ++k) {
                if (w.held[k] == nullptr)
                    continue;
                for_each_server_run(
                    *topology_, *w.held[k],
                    [&](int s, std::size_t, std::size_t count) {
                        emit(static_cast<std::size_t>(s),
                             Share{k, static_cast<GpuCount>(count)});
                    });
            }
        },
        &w.server_begin, &w.on_server);

    // Match abstract bins to physical servers within each rack,
    // maximizing overlap with the current layout so as few jobs as
    // possible actually move. Sentinel bins are pinned to the down
    // servers first: down_bins[k] sits in the k-th down server's rack.
    auto &bin_to_server = w.bin_to_server;
    auto &server_to_bin = w.server_to_bin;
    bin_to_server.assign(static_cast<std::size_t>(n), -1);
    server_to_bin.assign(static_cast<std::size_t>(n), -1);
    {
        std::size_t k = 0;
        for (int srv = 0; srv < n; ++srv) {
            if (server_up_[static_cast<std::size_t>(srv)])
                continue;
            const int b = w.down_bins[k++];
            bin_to_server[static_cast<std::size_t>(b)] = srv;
            server_to_bin[static_cast<std::size_t>(srv)] = b;
        }
    }
    // The overlaps never change while a rack is matched, so compute the
    // rack's spr x spr matrix once (each entry a merge of two job-sorted
    // lists), then run the greedy on it: the strictly largest overlap
    // wins, ties to the lowest bin, then the lowest server. Racks are
    // independent, so this makes exactly the global greedy's picks
    // (DESIGN.md §5, "Placement").
    auto &overlap = w.overlap;
    overlap.resize(static_cast<std::size_t>(spr * spr));
    for (int first = 0; first < n; first += spr) {
        for (int i = 0; i < spr; ++i) {
            const std::span<const Share> bin = group(
                w.bins, w.bin_begin, static_cast<std::size_t>(first + i));
            for (int j = 0; j < spr; ++j) {
                const std::span<const Share> cur =
                    group(w.on_server, w.server_begin,
                          static_cast<std::size_t>(first + j));
                GpuCount sum = 0;
                auto a = bin.begin();
                auto c = cur.begin();
                while (a != bin.end() && c != cur.end()) {
                    if (a->job < c->job) {
                        ++a;
                    } else if (c->job < a->job) {
                        ++c;
                    } else {
                        sum += std::min(a->gpus, c->gpus);
                        ++a;
                        ++c;
                    }
                }
                overlap[static_cast<std::size_t>(i * spr + j)] = sum;
            }
        }
        for (;;) {
            int best_i = -1, best_j = -1;
            GpuCount best_overlap = -1;
            for (int i = 0; i < spr; ++i) {
                if (bin_to_server[static_cast<std::size_t>(first + i)] >= 0)
                    continue;
                for (int j = 0; j < spr; ++j) {
                    if (server_to_bin[static_cast<std::size_t>(first + j)] >=
                        0) {
                        continue;
                    }
                    const GpuCount o =
                        overlap[static_cast<std::size_t>(i * spr + j)];
                    if (o > best_overlap) {
                        best_overlap = o;
                        best_i = i;
                        best_j = j;
                    }
                }
            }
            if (best_i < 0)
                break;  // every bin of the rack is matched
            bin_to_server[static_cast<std::size_t>(first + best_i)] =
                first + best_j;
            server_to_bin[static_cast<std::size_t>(first + best_j)] =
                first + best_i;
        }
    }

    // desired, group k: (server, GPUs still to hand out) of job ids[k]
    // under the new packing, ascending server.
    for (int s = 0; s < n; ++s) {
        EF_CHECK_MSG(server_to_bin[static_cast<std::size_t>(s)] >= 0,
                     "repack left server " << s << " unmatched");
    }
    group_by_key<Want>(
        w.ids.size(),
        [&](auto emit) {
            for (int s = 0; s < n; ++s) {
                const int b = server_to_bin[static_cast<std::size_t>(s)];
                for (const Share &share :
                     group(w.bins, w.bin_begin, static_cast<std::size_t>(b)))
                    emit(share.job, Want{s, share.gpus});
            }
        },
        &w.want_begin, &w.desired);

    // Materialize GPU ids: first let each job keep the ids it already
    // owns in servers where it stays (a two-pointer walk over its sorted
    // GPUs and its desired servers), then hand out the rest.
    enum : std::uint8_t { kUnclaimed, kKept, kHandedOut };
    auto &fate = w.fate;
    fate.assign(gpu_owner_.size(), kUnclaimed);
    for (std::size_t k = 0; k < w.ids.size(); ++k) {
        if (w.held[k] == nullptr)
            continue;
        const std::span<Want> want = group(w.desired, w.want_begin, k);
        auto it = want.begin();
        for (GpuCount g : *w.held[k]) {
            const int s = topology_->server_of(g);
            while (it != want.end() && it->server < s)
                ++it;
            if (it != want.end() && it->server == s && it->gpus > 0) {
                fate[static_cast<std::size_t>(g)] = kKept;
                --it->gpus;
            }
        }
    }
    // A job that still needs GPUs lost some of its own, so it moves
    // (the new job always does). Its remaining demands pull from GPUs
    // still unclaimed in the new layout, in job then server order,
    // which also lists the migrations in job order.
    result->migrations.clear();
    for (std::size_t k = 0; k < w.ids.size(); ++k) {
        const std::span<Want> want = group(w.desired, w.want_begin, k);
        if (std::all_of(want.begin(), want.end(),
                        [](const Want &x) { return x.gpus == 0; })) {
            continue;  // keeps every GPU it has
        }
        const std::vector<GpuCount> *had = w.held[k];
        std::vector<GpuCount> to;
        to.reserve(had == nullptr ? static_cast<std::size_t>(size)
                                  : had->size());
        for (Want &x : want) {
            const GpuCount base = topology_->first_gpu_of_server(x.server);
            for (GpuCount g = base; g < base + per_server && x.gpus > 0;
                 ++g) {
                if (fate[static_cast<std::size_t>(g)] == kUnclaimed) {
                    fate[static_cast<std::size_t>(g)] = kHandedOut;
                    to.push_back(g);
                    --x.gpus;
                }
            }
            EF_CHECK_MSG(x.gpus == 0, "repack accounting failed");
        }
        if (had == nullptr) {
            std::sort(to.begin(), to.end());
            result->gpus = std::move(to);
            continue;
        }
        // Only a GPU's current owner can keep it.
        for (GpuCount g : *had) {
            if (fate[static_cast<std::size_t>(g)] == kKept)
                to.push_back(g);
        }
        std::sort(to.begin(), to.end());
        result->migrations.push_back(Migration{w.ids[k], std::move(to)});
    }
    commit_repack(new_job, result);
    return true;
}

bool
PlacementManager::repack_with_reference(JobId new_job, GpuCount size,
                                        PlacementResult *result)
{
    if (!pack_bins(new_job, size))
        return false;
    const auto bin_jobs = [this](int b) {
        return group(scratch_.bins, scratch_.bin_begin,
                     static_cast<std::size_t>(b));
    };
    const auto &down_bins = scratch_.down_bins;
    const int n = topology_->num_servers();
    const int servers_per_rack = topology_->spec().servers_per_rack;
    const GpuCount per_server = topology_->gpus_per_server();

    // current_in[job][server] = GPUs job currently holds in server.
    std::map<JobId, std::vector<GpuCount>> current_in;
    for (const auto &[job, gpus] : job_gpus_) {
        auto &row = current_in[job];
        row.assign(static_cast<std::size_t>(n), 0);
        for (GpuCount g : gpus)
            ++row[static_cast<std::size_t>(topology_->server_of(g))];
    }

    // Match abstract bins to physical servers *within each rack*,
    // maximizing overlap with the current layout so as few jobs as
    // possible actually move.
    std::vector<int> bin_to_server(static_cast<std::size_t>(n), -1);
    std::vector<bool> server_taken(static_cast<std::size_t>(n), false);
    std::vector<bool> bin_done(static_cast<std::size_t>(n), false);
    auto rack_of_bin = [&](int b) { return b / servers_per_rack; };
    // Pin the sentinel bins to the down servers before matching.
    {
        std::size_t next_down_bin = 0;
        for (int srv = 0; srv < n && next_down_bin < down_bins.size();
             ++srv) {
            if (server_up_[static_cast<std::size_t>(srv)])
                continue;
            // Find the sentinel bin reserved in this server's rack.
            for (std::size_t i = next_down_bin; i < down_bins.size();
                 ++i) {
                int b = down_bins[i];
                if (rack_of_bin(b) == topology_->rack_of_server(srv) &&
                    !bin_done[static_cast<std::size_t>(b)]) {
                    bin_to_server[static_cast<std::size_t>(b)] = srv;
                    bin_done[static_cast<std::size_t>(b)] = true;
                    server_taken[static_cast<std::size_t>(srv)] = true;
                    break;
                }
            }
            ++next_down_bin;
        }
    }
    for (int round = 0; round < n; ++round) {
        int best_bin = -1, best_server = -1;
        GpuCount best_overlap = -1;
        for (int b = 0; b < n; ++b) {
            if (bin_done[static_cast<std::size_t>(b)])
                continue;
            int r = rack_of_bin(b);
            for (int s = r * servers_per_rack;
                 s < (r + 1) * servers_per_rack; ++s) {
                if (server_taken[static_cast<std::size_t>(s)])
                    continue;
                GpuCount overlap = 0;
                for (const Share &share : bin_jobs(b)) {
                    auto it = current_in.find(scratch_.ids[share.job]);
                    if (it != current_in.end()) {
                        overlap += std::min(
                            share.gpus,
                            it->second[static_cast<std::size_t>(s)]);
                    }
                }
                if (overlap > best_overlap) {
                    best_overlap = overlap;
                    best_bin = b;
                    best_server = s;
                }
            }
        }
        if (best_bin < 0)
            break;  // all remaining bins were pinned already
        bin_to_server[static_cast<std::size_t>(best_bin)] = best_server;
        bin_done[static_cast<std::size_t>(best_bin)] = true;
        server_taken[static_cast<std::size_t>(best_server)] = true;
    }

    // Desired per-(job, server) GPU counts under the new packing.
    std::map<JobId, std::vector<GpuCount>> desired;
    for (int b = 0; b < n; ++b) {
        int s = bin_to_server[static_cast<std::size_t>(b)];
        for (const Share &share : bin_jobs(b)) {
            auto &row = desired[scratch_.ids[share.job]];
            if (row.empty())
                row.assign(static_cast<std::size_t>(n), 0);
            row[static_cast<std::size_t>(s)] += share.gpus;
        }
    }

    // Materialize GPU ids: first let each job keep the ids it already
    // owns in servers where it stays, then hand out the rest.
    std::vector<JobId> new_owner(gpu_owner_.size(), kInvalidJob);
    std::map<JobId, std::vector<GpuCount>> new_gpus;
    for (auto &[job, row] : desired) {
        auto it = current_in.find(job);
        if (it == current_in.end())
            continue;  // the new job keeps nothing
        const auto &cur_gpus = job_gpus_.at(job);
        std::vector<GpuCount> kept_per_server(static_cast<std::size_t>(n), 0);
        for (GpuCount g : cur_gpus) {
            int s = topology_->server_of(g);
            if (kept_per_server[static_cast<std::size_t>(s)] <
                row[static_cast<std::size_t>(s)]) {
                new_owner[static_cast<std::size_t>(g)] = job;
                new_gpus[job].push_back(g);
                ++kept_per_server[static_cast<std::size_t>(s)];
            }
        }
        for (int s = 0; s < n; ++s) {
            row[static_cast<std::size_t>(s)] -=
                kept_per_server[static_cast<std::size_t>(s)];
        }
    }
    // Remaining demands pull from GPUs still unowned in the new map.
    for (auto &[job, row] : desired) {
        for (int s = 0; s < n; ++s) {
            GpuCount need = row[static_cast<std::size_t>(s)];
            if (need <= 0)
                continue;
            GpuCount base = topology_->first_gpu_of_server(s);
            for (GpuCount g = base;
                 g < base + per_server && need > 0; ++g) {
                if (new_owner[static_cast<std::size_t>(g)] == kInvalidJob) {
                    new_owner[static_cast<std::size_t>(g)] = job;
                    new_gpus[job].push_back(g);
                    --need;
                }
            }
            EF_CHECK_MSG(need == 0, "repack accounting failed");
        }
    }

    // Diff against the old layout to produce the migration list.
    result->migrations.clear();
    for (auto &[job, gpus] : new_gpus)
        std::sort(gpus.begin(), gpus.end());
    for (const auto &[job, old_set] : job_gpus_) {
        const auto &fresh = new_gpus.at(job);
        if (fresh != old_set)
            result->migrations.push_back(Migration{job, fresh});
    }
    result->gpus = new_gpus.at(new_job);
    commit_repack(new_job, result);
    return true;
}

void
PlacementManager::commit_repack(JobId new_job, PlacementResult *result)
{
    // Only the movers change owners. Release them all before
    // reassigning, so exchanges between movers commit in one step; a
    // mover keeps its size, so its list is rewritten in place.
    for (const Migration &m : result->migrations)
        disown(job_gpus_.at(m.job));
    for (const Migration &m : result->migrations) {
        EF_DCHECK(std::is_sorted(m.to.begin(), m.to.end()));
        std::vector<GpuCount> &gpus = job_gpus_.at(m.job);
        gpus.assign(m.to.begin(), m.to.end());
        own(m.job, gpus);
    }
    result->ok = true;
    assign(new_job, result->gpus);
}

PlacementResult
PlacementManager::place(JobId job, GpuCount size, PlacementStrategy strategy,
                        bool allow_migration)
{
    return place_via(job, size, strategy, allow_migration,
                     &PlacementManager::repack_with);
}

PlacementResult
PlacementManager::place_reference(JobId job, GpuCount size,
                                  PlacementStrategy strategy,
                                  bool allow_migration)
{
    return place_via(job, size, strategy, allow_migration,
                     &PlacementManager::repack_with_reference);
}

PlacementResult
PlacementManager::place_via(JobId job, GpuCount size,
                            PlacementStrategy strategy, bool allow_migration,
                            Repack repack)
{
    EF_CHECK_MSG(!is_placed(job), "job " << job << " is already placed");
    EF_CHECK_MSG(size > 0, "placement size must be positive");
    obs::count("cluster.place_requests");
    PlacementResult result;
    if (size > idle_gpus()) {
        obs::count("cluster.place_failures");
        return result;
    }

    auto direct = try_direct(size, strategy);
    if (direct.has_value())
        std::sort(direct->begin(), direct->end());
    if (strategy == PlacementStrategy::kBestFitCompact && allow_migration) {
        // Buddy defragmentation: if the direct placement would span
        // more servers than a compact one (or fails outright), repack
        // so the job gets the locality its scaling curve assumes.
        int compact_span =
            (size + topology_->gpus_per_server() - 1) /
            topology_->gpus_per_server();
        int compact_racks =
            (compact_span + topology_->spec().servers_per_rack - 1) /
            topology_->spec().servers_per_rack;
        bool direct_compact =
            direct.has_value() &&
            topology_->server_span(*direct) <= compact_span &&
            topology_->rack_span(*direct) <= compact_racks;
        if (!direct_compact && (this->*repack)(job, size, &result)) {
            obs::count("cluster.repacks");
            obs::count("cluster.migrations",
                       result.migrations.size());
            return result;
        }
    }
    if (direct.has_value()) {
        result.ok = true;
        result.gpus = std::move(*direct);
        assign(job, result.gpus);
        return result;
    }
    obs::count("cluster.place_failures");
    return result;
}

PlacementResult
PlacementManager::resize(JobId job, GpuCount new_size,
                         PlacementStrategy strategy, bool allow_migration)
{
    return resize_via(job, new_size, strategy, allow_migration,
                      &PlacementManager::repack_with);
}

PlacementResult
PlacementManager::resize_reference(JobId job, GpuCount new_size,
                                   PlacementStrategy strategy,
                                   bool allow_migration)
{
    return resize_via(job, new_size, strategy, allow_migration,
                      &PlacementManager::repack_with_reference);
}

PlacementResult
PlacementManager::resize_via(JobId job, GpuCount new_size,
                             PlacementStrategy strategy,
                             bool allow_migration, Repack repack)
{
    EF_CHECK(is_placed(job));
    EF_CHECK(new_size > 0);
    obs::count("cluster.resize_requests");
    std::vector<GpuCount> current = gpus_of(job);
    GpuCount old_size = static_cast<GpuCount>(current.size());
    PlacementResult result;
    if (new_size == old_size) {
        result.ok = true;
        result.gpus = current;
        return result;
    }

    if (new_size < old_size) {
        // Shrink: keep GPUs from the servers where the job is densest,
        // so the remaining placement is as compact as possible. The
        // stable sort breaks ties by ascending server.
        struct Run { std::size_t begin, size; };
        std::vector<Run> runs;
        for_each_server_run(*topology_, current,
                            [&](int, std::size_t begin, std::size_t count) {
                                runs.push_back(Run{begin, count});
                            });
        std::stable_sort(runs.begin(), runs.end(),
                         [](const Run &a, const Run &b) {
                             return a.size > b.size;
                         });
        std::vector<GpuCount> keep;
        keep.reserve(static_cast<std::size_t>(new_size));
        for (const Run &run : runs) {
            for (std::size_t i = run.begin;
                 i < run.begin + run.size &&
                 static_cast<GpuCount>(keep.size()) < new_size;
                 ++i) {
                keep.push_back(current[i]);
            }
        }
        unassign(job);
        assign(job, keep);
        result.ok = true;
        std::sort(keep.begin(), keep.end());
        result.gpus = std::move(keep);
        return result;
    }

    // Grow: free the current GPUs, then place fresh (possibly with
    // migration); restore the old placement if that fails.
    unassign(job);
    result = place_via(job, new_size, strategy, allow_migration, repack);
    if (!result.ok) {
        assign(job, current);
    }
    return result;
}

void
PlacementManager::release(JobId job)
{
    obs::count("cluster.releases");
    unassign(job);
}

void
PlacementManager::validate() const
{
    std::vector<GpuCount> free_check(free_per_server_.size(), 0);
    std::vector<GpuCount> down_check(down_per_server_.size(), 0);
    GpuCount down_total = 0;
    std::map<JobId, GpuCount> counts;
    for (GpuCount g = 0; g < topology_->total_gpus(); ++g) {
        JobId owner = gpu_owner_[static_cast<std::size_t>(g)];
        if (!gpu_up_[static_cast<std::size_t>(g)]) {
            EF_CHECK_MSG(owner == kInvalidJob,
                         "down GPU " << g << " is owned");
            ++down_check[static_cast<std::size_t>(
                topology_->server_of(g))];
            ++down_total;
        } else if (owner == kInvalidJob) {
            ++free_check[static_cast<std::size_t>(topology_->server_of(g))];
        } else {
            ++counts[owner];
        }
    }
    EF_CHECK(free_check == free_per_server_);
    EF_CHECK(down_check == down_per_server_);
    EF_CHECK(down_total == down_gpus_);
    EF_CHECK(scan_capacity() ==
             std::make_pair(available_gpus_, idle_gpus_));
    EF_CHECK(scan_span_excess() ==
             std::make_pair(span_excess_, jobs_with_span_excess_));
    for (int s = 0; s < topology_->num_servers(); ++s) {
        if (!server_up_[static_cast<std::size_t>(s)]) {
            EF_CHECK(free_per_server_[static_cast<std::size_t>(s)] +
                         down_per_server_[static_cast<std::size_t>(s)] ==
                     topology_->gpus_per_server());
        }
    }
    EF_CHECK(counts.size() == job_gpus_.size());
    for (const auto &[job, gpus] : job_gpus_) {
        EF_CHECK(counts[job] == static_cast<GpuCount>(gpus.size()));
        EF_CHECK(std::is_sorted(gpus.begin(), gpus.end()));
        for (GpuCount g : gpus)
            EF_CHECK(gpu_owner_[static_cast<std::size_t>(g)] == job);
    }
}

}  // namespace ef
