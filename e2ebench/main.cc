/**
 * @file
 * End-to-end benchmark program: runs one workload, checks its outputs,
 * and prints every metric by name and unit. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}.
 *
 *   e2e_bench --workload fig08|large|service|churn --seed N
 *             --seconds S --trace 0|1 --out DIR [--journal DIR] [--tiny]
 *
 * --trace 0 measures the end-to-end metrics untraced (policies are
 * called directly). --trace 1 makes one untraced and one traced pass
 * and reports the per-layer metrics; spans go to DIR/spans-<w>.json.
 * Journal directories go under --journal (default: --out).
 * --tiny shrinks every workload for the benchmark's self-test.
 * Exits 1 when an output check fails, 2 on bad usage or a build
 * without NDEBUG.
 */
#include <sys/resource.h>
#include <sys/wait.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/topology.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "probe.h"
#include "recover/log.h"
#include "sched/scheduler.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace fs = std::filesystem;

namespace ef {
namespace e2e {
namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out = ".";
    std::string journal;  ///< journal directories; default = out
    bool tiny = false;
};

/** Minimum timed repetitions, whatever --seconds says. */
constexpr int kMinReps = 3;
/** Resumes, and extra set-ups, sampled after each timed repetition. */
constexpr int kResumesPerRep = 10;
constexpr int kSetupsPerRep = 3;

double
seconds_since(std::int64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/**
 * Whether timed repetition @p rep (0-based) starts: a traced run makes
 * one; an untraced run at least kMinReps, then more while another
 * repetition of the mean length still ends within --seconds.
 */
bool
keep_going(const Options &opt, int rep, std::int64_t start_ns)
{
    if (opt.trace)
        return rep < 1;
    if (rep < kMinReps)
        return true;
    const double elapsed = seconds_since(start_ns);
    return elapsed + elapsed / rep <= opt.seconds;
}

/** Generator seed for a preset: --seed 0 keeps the repo's preset. */
std::uint64_t
derive_seed(std::uint64_t preset, std::uint64_t seed)
{
    return seed == 0 ? preset : preset ^ (seed * 0x9E3779B97F4A7C15ULL);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        check(std::isfinite(value), name + " is not finite");
        metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed_checks;
        std::fprintf(stderr, "output check failed: %s\n", what.c_str());
    }

    /** The result line: {correct, attempted, failed, metrics}. */
    void
    print(std::uint64_t attempted) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %d, \"metrics\": {",
                    failed_checks == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    failed_checks);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", m.name.c_str(), m.value,
                        m.unit.c_str());
        }
        std::printf("}}\n");
    }

    int failed_checks = 0;

  private:
    std::vector<Metric> metrics_;
};

/**
 * Peak RSS in MB of a forked child that runs only @p work, or -1 when
 * the child fails. Fork before the parent allocates anything large.
 */
double
child_peak_rss_mb(const std::function<bool()> &work)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0)
        std::_Exit(work() ? 0 : 1);
    int status = 0;
    struct rusage usage {};
    if (pid < 0 || wait4(pid, &status, 0, &usage) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

bool
on_tmpfs(const std::string &path)
{
    struct statfs st {};
    constexpr long kTmpfsMagic = 0x01021994;
    return statfs(path.c_str(), &st) == 0 &&
           static_cast<long>(st.f_type) == kTmpfsMagic;
}

// --- simulator workloads -------------------------------------------------

struct SimCase
{
    std::size_t trace = 0;
    std::string policy;
    SimConfig config;
};

/** A simulator workload: traces to generate and (trace, policy) runs. */
struct SimWorkload
{
    std::vector<TraceGenConfig> gens;
    /** The first case is also the one recover_s crashes and resumes. */
    std::vector<SimCase> cases;
    /** churn: the timed runs journal and snapshot; elsewhere they
     *  run without durability. */
    bool durable_timed = false;
    /** fig08: deadline_ratio is elasticflow's mean over the traces. */
    bool mean_over_traces = false;
};

TraceGenConfig
large_gen(const Options &opt)
{
    TraceGenConfig gen = testbed_large_preset();
    gen.name = "large-2048gpu-1000jobs";
    gen.topology = TopologySpec::with_total_gpus(opt.tiny ? 256 : 2048);
    gen.num_jobs = opt.tiny ? 80 : 1000;
    gen.mean_interarrival_s = 60.0;
    return gen;
}

TraceGenConfig
churn_gen(const Options &opt)
{
    // The churn preset (64 GPUs, 160 jobs) scaled 4x in capacity with
    // arrivals 4x as dense, so the load per GPU is unchanged.
    TraceGenConfig gen = churn_preset();
    gen.name = "churn-256gpu-1000jobs";
    gen.topology = TopologySpec::with_total_gpus(opt.tiny ? 64 : 256);
    gen.num_jobs = opt.tiny ? 80 : 1000;
    gen.mean_interarrival_s = churn_preset().mean_interarrival_s /
                              (opt.tiny ? 1.0 : 4.0);
    return gen;
}

SimConfig
churn_config(const Options &opt)
{
    SimConfig config;
    config.defrag.enabled = true;
    config.defrag.budget_units_per_round = 16.0;
    // Per-GPU MTBF of 12 days: about ten single-GPU faults over the
    // ~12 h run on 256 GPUs. The fault seed follows the input variant
    // (see configs_for).
    config.faults.gpu_mtbf_s = opt.tiny ? 20.0 * kHour : 12.0 * kDay;
    return config;
}

SimWorkload
make_sim_workload(const Options &opt)
{
    SimWorkload w;
    if (opt.workload == "fig08") {
        // Exactly bench/fig08_simulation: the 195-job testbed trace
        // under all seven policies, then ten cluster presets plus
        // Philly under the six non-Pollux policies.
        w.gens.push_back(testbed_large_preset());
        for (int preset = 1; preset <= 10; ++preset)
            w.gens.push_back(cluster_preset(preset));
        w.gens.push_back(philly_preset());
        for (const std::string &name : all_scheduler_names())
            w.cases.push_back({0, name, {}});
        for (std::size_t t = 1; t < w.gens.size(); ++t) {
            for (const char *name : {"elasticflow", "edf", "gandiva",
                                     "tiresias", "themis", "chronus"})
                w.cases.push_back({t, name, {}});
        }
        w.mean_over_traces = true;
    } else if (opt.workload == "large") {
        w.gens.push_back(large_gen(opt));
        w.cases.push_back({0, "elasticflow", {}});
    } else {
        w.gens.push_back(churn_gen(opt));
        w.cases.push_back({0, "elasticflow", churn_config(opt)});
        w.durable_timed = true;
    }
    for (TraceGenConfig &gen : w.gens) {
        if (opt.tiny)
            gen.num_jobs = std::min(gen.num_jobs, 80);
    }
    return w;
}

/**
 * The preset trace with every arrival timestamp moved by a seeded
 * shift of up to half a mean interarrival (jobs sharing a timestamp,
 * i.e. a burst, move together; deadlines move with their arrival).
 * Regenerating a single trace per seed changes its total work, and
 * with it the run time, by up to 2x; a jittered preset keeps the
 * input's shape, so seeds vary the input and not its size.
 */
Trace
jittered(Trace trace, double max_shift, std::uint64_t seed)
{
    if (seed == 0)
        return trace;
    Rng rng(seed);
    Time last = -1.0;
    double shift = 0.0;
    for (JobSpec &job : trace.jobs) {
        if (job.submit_time != last)
            shift = rng.uniform_real(-max_shift, max_shift);
        last = job.submit_time;
        shift = std::max(shift, -job.submit_time);
        job.submit_time += shift;
        if (!is_unbounded(job.deadline))
            job.deadline += shift;
    }
    trace.sort_by_submit_time();
    return trace;
}

/** Input variant @p rep of --seed @p seed; (0, 0) is the presets. */
std::uint64_t
variant_seed(std::uint64_t seed, int rep)
{
    return seed * 1009 + static_cast<std::uint64_t>(rep);
}

std::vector<Trace>
generate(const SimWorkload &w, std::uint64_t variant)
{
    std::vector<Trace> traces;
    for (const TraceGenConfig &gen : w.gens) {
        traces.push_back(jittered(TraceGenerator::generate(gen),
                                  gen.mean_interarrival_s / 2.0,
                                  variant == 0 ? 0
                                               : derive_seed(gen.seed,
                                                             variant)));
    }
    return traces;
}

/** A constructed (scheduler, simulator) pair, ready to run. */
struct Built
{
    std::unique_ptr<Scheduler> scheduler;
    ProbeScheduler *probe = nullptr;  ///< non-null on traced runs
    std::unique_ptr<Simulator> sim;
};

Built
build(const Trace &trace, const std::string &policy,
      const SimConfig &config, Spans *spans)
{
    Built b;
    b.scheduler = make_scheduler(policy);
    if (spans != nullptr) {
        auto probe = std::make_unique<ProbeScheduler>(
            std::move(b.scheduler), spans);
        b.probe = probe.get();
        b.scheduler = std::move(probe);
    }
    b.sim = std::make_unique<Simulator>(trace, b.scheduler.get(), config);
    return b;
}

/** Run a built simulator, preparing its journal first if it has one. */
RunResult
run_built(Built &b, const SimConfig &config, Report *report)
{
    if (!config.durability.journal_dir.empty()) {
        recover::Status st = b.sim->prepare_durability();
        report->check(st.ok(), "journal set-up: " + st.to_string());
    }
    return b.sim->run();
}

/** Never fires (no run reaches this round); keeps the fault injector,
 *  and with it the state hash, identical to the crashing run's. */
constexpr std::uint64_t kNoCrashRound = 1ULL << 60;

SimConfig
with_crash(SimConfig config, std::uint64_t round)
{
    FaultEvent crash;
    crash.type = FaultType::kSchedCrash;
    crash.target = static_cast<std::int64_t>(round);
    config.faults.script.push_back(crash);
    return config;
}

SimConfig
with_journal(SimConfig config, const std::string &dir)
{
    config.durability.journal_dir = dir;
    return config;
}

void
fresh_dir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/** Copy the two journal files of @p from into @p to (fresh). */
void
copy_journal(const std::string &from, const std::string &to)
{
    fresh_dir(to);
    for (const std::string &file :
         {recover::DurableLog::snapshot_path(from),
          recover::DurableLog::journal_path(from)}) {
        if (fs::exists(file))
            fs::copy_file(file, to + "/" + fs::path(file).filename().string());
    }
}

std::uint64_t
file_bytes(const std::string &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** Resume timings (seconds) from one crashed directory. */
struct ResumeSamples
{
    std::vector<double> total;   ///< load through the end of the run
    std::vector<double> load;    ///< prepare_durability / bind_durability
    std::vector<double> replay;  ///< the rest: replay, then finish
};

/** The --trace 0 result; run_s samples also go to stderr. */
void
report_end_to_end(const std::vector<double> &run,
                  const std::vector<double> &setup,
                  const ResumeSamples &resumes,
                  const std::vector<double> &ratio, double rss_mb,
                  Report *report)
{
    std::fprintf(stderr, "run_s samples:");
    for (double x : run)
        std::fprintf(stderr, " %.4f", x);
    std::fprintf(stderr, "\n");
    report->add("run_s", median(run), "s");
    report->add("setup_s", median(setup), "s");
    report->add("recover_s", median(resumes.total), "s");
    report->add("deadline_ratio", mean(ratio), "fraction");
    report->add("peak_rss_mb", rss_mb, "MB");
}

/** Round commits left in @p dir's journal: the rounds a resume replays. */
std::uint64_t
journal_rounds(const std::string &dir)
{
    std::string snapshot;
    recover::JournalContents contents;
    if (!recover::DurableLog::load(dir, &snapshot, &contents).ok())
        return 0;
    std::uint64_t rounds = 0;
    for (const recover::JournalRecord &rec : contents.records)
        rounds += rec.kind == recover::RecordKind::kRoundCommit ? 1 : 0;
    return rounds;
}

/**
 * A journaled run crashed at its final round commit, resumed again and
 * again from a pristine copy of its directory. It is built from the
 * presets (input variant 0 of seed 0) on every seed: a seeded input
 * would leave anywhere from 0 to 15 rounds after the last snapshot, and
 * recover_s would measure the seed.
 */
struct Crash
{
    std::string dir;
    std::uint64_t expected_hash = 0;  ///< the uninterrupted run's
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t tail_rounds = 0;
    double reference_s = 0.0;  ///< the same run without a journal
    double durable_s = 0.0;    ///< the journaled run up to the crash

    // Simulator crashes only: what a resume constructs.
    Trace trace;
    std::string policy;
    SimConfig config;

    void
    measure_files()
    {
        snapshot_bytes = file_bytes(recover::DurableLog::snapshot_path(dir));
        journal_bytes = file_bytes(recover::DurableLog::journal_path(dir));
        tail_rounds = journal_rounds(dir);
    }
};

Crash
crash_sim(Trace trace, const SimCase &c, const std::string &dir,
          Report *report)
{
    Crash cr;
    cr.dir = dir;
    cr.policy = c.policy;
    std::uint64_t rounds = 0;
    {
        Built b = build(trace, c.policy, with_crash(c.config, kNoCrashRound),
                        nullptr);
        const std::int64_t t0 = now_ns();
        const RunResult reference = b.sim->run();
        cr.reference_s = seconds_since(t0);
        cr.expected_hash = reference.state_hash;
        rounds = reference.state_hash_samples;
    }
    cr.config = with_journal(with_crash(c.config, rounds - 1), dir);
    fresh_dir(dir);
    {
        Built b = build(trace, c.policy, cr.config, nullptr);
        const std::int64_t t0 = now_ns();
        run_built(b, cr.config, report);
        cr.durable_s = seconds_since(t0);
        report->check(b.sim->crashed(),
                      "journaled run did not crash at its final commit");
    }
    cr.measure_files();
    cr.trace = std::move(trace);
    cr.config.durability.journal_dir = dir + "-resume";
    cr.config.durability.recover = true;
    return cr;
}

/**
 * One resume of @p cr: prepare_durability() through the recovered
 * run() returning, checked against the uninterrupted run's hash. With
 * @p snapshot_ms, also time write_snapshot_now() on the resumed state
 * (a clean boundary) into the scratch copy.
 */
void
resume_sim(const Crash &cr, ResumeSamples *out, Spans *spans, Report *report,
           std::vector<double> *snapshot_ms = nullptr)
{
    copy_journal(cr.dir, cr.config.durability.journal_dir);
    auto scheduler = make_scheduler(cr.policy);
    Simulator sim(cr.trace, scheduler.get(), cr.config);
    Spans scratch;
    Spans &sp = spans != nullptr ? *spans : scratch;
    const std::int32_t root = sp.open("recover.resume");
    std::int32_t span = sp.open("recover.load", root);
    recover::Status st = sim.prepare_durability();
    const double load_ns = static_cast<double>(sp.close(span));
    span = sp.open("recover.replay", root);
    RunResult resumed = sim.run();
    const double replay_ns = static_cast<double>(sp.close(span));
    out->total.push_back(static_cast<double>(sp.close(root)) * 1e-9);
    out->load.push_back(load_ns * 1e-9);
    out->replay.push_back(replay_ns * 1e-9);
    report->check(st.ok(), "resume load: " + st.to_string());
    report->check(resumed.state_hash == cr.expected_hash,
                  "resumed state_hash differs from the uninterrupted run's");
    for (int i = 0; snapshot_ms != nullptr && i < 5; ++i) {
        const std::int64_t t0 = now_ns();
        recover::Status ws = sim.write_snapshot_now();
        snapshot_ms->push_back(seconds_since(t0) * 1e3);
        report->check(ws.ok(), "snapshot write: " + ws.to_string());
    }
}

std::uint64_t
slo_submissions(const RunResult &r)
{
    return r.submitted(JobKind::kSlo);
}

double
deadline_ratio(const SimWorkload &w, const std::vector<RunResult> &results)
{
    if (!w.mean_over_traces)
        return results.front().deadline_ratio();
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
        if (w.cases[i].policy == "elasticflow") {
            sum += results[i].deadline_ratio();
            ++n;
        }
    }
    return n > 0 ? sum / n : 0.0;
}

/** Every case constructed and ready to run. */
struct SetUp
{
    std::vector<Trace> traces;
    std::vector<Built> built;
    double generate_s = 0.0;
    double setup_s = 0.0;  ///< generation included
};

/** Generate the traces, fresh journal directories, then construct
 *  schedulers (forwarding ones when @p spans) and simulators. */
SetUp
set_up(const SimWorkload &w, const std::vector<SimConfig> &configs,
       std::uint64_t variant, Spans *spans)
{
    SetUp s;
    const std::int64_t t0 = now_ns();
    s.traces = generate(w, variant);
    s.generate_s = seconds_since(t0);
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
        if (!configs[i].durability.journal_dir.empty())
            fresh_dir(configs[i].durability.journal_dir);
        s.built.push_back(build(s.traces[w.cases[i].trace],
                                w.cases[i].policy, configs[i], spans));
    }
    s.setup_s = seconds_since(t0);
    return s;
}

struct Pass
{
    std::vector<RunResult> results;
    double setup_s = 0.0;
    double generate_s = 0.0;
    double run_s = 0.0;
    std::vector<Built> built;  ///< kept alive on traced passes
};

/** One set-up, then every case run in order. @p spans non-null = the
 *  traced pass. */
Pass
run_pass(const SimWorkload &w, const std::vector<SimConfig> &configs,
         std::uint64_t variant, Spans *spans, Report *report,
         std::vector<Trace> *keep_traces)
{
    Pass p;
    SetUp set = set_up(w, configs, variant, spans);
    p.generate_s = set.generate_s;
    p.setup_s = set.setup_s;
    std::vector<Built> &built = set.built;

    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
        Built &b = built[i];
        std::int32_t span = -1;
        if (spans != nullptr) {
            span = spans->open("sim.run");
            b.probe->attach(b.sim.get(), span);
        }
        p.results.push_back(run_built(b, configs[i], report));
        if (spans != nullptr)
            spans->close(span);
    }
    p.run_s = seconds_since(t1);
    if (spans != nullptr)
        p.built = std::move(built);
    if (keep_traces != nullptr)
        *keep_traces = std::move(set.traces);
    return p;
}

// --- placement replay ----------------------------------------------------

struct PlaceStats
{
    std::vector<double> call_ns;
    std::uint64_t mismatches = 0;
};

/**
 * Replay a run's allocation log through a fresh PlacementManager with
 * the policy's strategy and migration flag. Entries that relocate an
 * already-placed job at its current size are migrations; they must
 * match the migrations the next place()/resize() call reports, and
 * every request must land on exactly the logged GPU set.
 */
void
replay_placement(const RunResult &run, const TopologySpec &spec,
                 PlacementStrategy strategy, bool migrate, Spans *spans,
                 PlaceStats *out)
{
    Topology topology(spec);
    PlacementManager pm(&topology);
    const std::int32_t root = spans->open("cluster.replay");
    // Completions release GPUs without a log entry: release each
    // finished job before the first entry at or after its finish time.
    std::vector<const JobOutcome *> finished;
    for (const JobOutcome &o : run.jobs) {
        if (o.finished)
            finished.push_back(&o);
    }
    std::stable_sort(finished.begin(), finished.end(),
                     [](const JobOutcome *a, const JobOutcome *b) {
                         return a->finish_time < b->finish_time;
                     });
    std::size_t next_finish = 0;
    std::vector<const AllocationEvent *> moved;
    for (const AllocationEvent &ev : run.allocation_log) {
        for (; next_finish < finished.size() &&
               finished[next_finish]->finish_time <= ev.time;
             ++next_finish) {
            const JobId done = finished[next_finish]->spec.id;
            if (pm.is_placed(done))
                pm.release(done);
        }
        if (ev.gpus.empty()) {
            if (pm.is_placed(ev.job))
                pm.release(ev.job);
            continue;
        }
        const GpuCount size = static_cast<GpuCount>(ev.gpus.size());
        if (pm.is_placed(ev.job) && pm.size_of(ev.job) == size) {
            moved.push_back(&ev);
            continue;
        }
        const bool placed = pm.is_placed(ev.job);
        const std::int32_t span = spans->open("cluster.place", root, ev.job);
        PlacementResult res = placed
                                  ? pm.resize(ev.job, size, strategy, migrate)
                                  : pm.place(ev.job, size, strategy, migrate);
        out->call_ns.push_back(static_cast<double>(spans->close(span)));
        std::size_t k = 0;
        bool same = res.ok && pm.gpus_of(ev.job) == ev.gpus;
        for (const Migration &m : res.migrations) {
            if (m.job == ev.job)
                continue;
            same = same && k < moved.size() && moved[k]->job == m.job &&
                   moved[k]->gpus == m.to;
            ++k;
        }
        same = same && k == moved.size();
        moved.clear();
        out->mismatches += same ? 0 : 1;
    }
    out->mismatches += moved.empty() ? 0 : 1;
    spans->close(root);
}

// --- per-layer aggregation -----------------------------------------------

struct SchedAgg
{
    std::vector<double> admit_ns, allocate_ns, hash_ns;
    std::uint64_t admitted = 0, view_calls = 0;
    double hash_est_s = 0.0;

    void
    add(const ProbeScheduler &p, std::uint64_t hash_samples)
    {
        admit_ns.insert(admit_ns.end(), p.admit_ns.begin(),
                        p.admit_ns.end());
        allocate_ns.insert(allocate_ns.end(), p.allocate_ns.begin(),
                           p.allocate_ns.end());
        hash_ns.insert(hash_ns.end(), p.hash_ns.begin(), p.hash_ns.end());
        admitted += p.admitted;
        view_calls += p.view_calls();
        // Mean probed call x the simulator's own hash count.
        hash_est_s += mean(p.hash_ns) * 1e-9 *
                      static_cast<double>(hash_samples);
    }
};

double
sum_s(const std::vector<double> &ns)
{
    double s = 0.0;
    for (double v : ns)
        s += v;
    return s * 1e-9;
}

/** Traced large runs with planner_shards=4: allocate() busy seconds. */
double
sharded_allocate_s(const Trace &trace, int threads,
                   std::uint64_t expected_hash, Spans *spans,
                   Report *report)
{
    SimConfig config;
    config.planner_shards = 4;
    config.planner_threads = threads;
    Built b = build(trace, "elasticflow", config, spans);
    const std::int32_t span = spans->open("sim.run.sharded");
    b.probe->attach(b.sim.get(), span);
    RunResult r = b.sim->run();
    spans->close(span);
    report->check(r.state_hash == expected_hash,
                  "sharded planner changed the state_hash");
    return sum_s(b.probe->allocate_ns);
}

const std::vector<std::pair<std::string, std::string>> &
layer_metrics()
{
    static const std::vector<std::pair<std::string, std::string>> kAll = {
        {"sched.admit_calls", "count"},
        {"sched.admit_s", "s"},
        {"sched.admit_p50_us", "us"},
        {"sched.admit_p99_us", "us"},
        {"sched.allocate_calls", "count"},
        {"sched.allocate_s", "s"},
        {"sched.allocate_p50_ms", "ms"},
        {"sched.allocate_p99_ms", "ms"},
        {"sched.admitted_ratio", "fraction"},
        {"sched.view_calls", "count"},
        {"sched.allocate_s_sharded_t1", "s"},
        {"sched.allocate_s_sharded_t4", "s"},
        {"sim.self_s", "s"},
        {"sim.state_hash_us", "us"},
        {"sim.state_hash_s", "s"},
        {"sim.hash_samples", "count"},
        {"sim.replans_attempted", "count"},
        {"sim.replans_coalesced", "count"},
        {"sim.replans_elided", "count"},
        {"sim.replans_run_ratio", "fraction"},
        {"cluster.place_calls", "count"},
        {"cluster.place_s", "s"},
        {"cluster.place_p99_us", "us"},
        {"cluster.migrations", "count"},
        {"cluster.placement_failures", "count"},
        {"cluster.avg_fragmentation", "fraction"},
        {"cluster.avg_span_excess", "servers"},
        {"serve.submit_calls", "count"},
        {"serve.submit_s", "s"},
        {"serve.round_submit_p50_us", "us"},
        {"serve.round_submit_p99_us", "us"},
        {"serve.fast_submit_p50_us", "us"},
        {"serve.rounds", "count"},
        {"serve.rounds_forced", "count"},
        {"serve.planning_cost_units", "count"},
        {"serve.shed_ratio", "fraction"},
        {"serve.max_queue_depth", "count"},
        {"serve.decision_latency_p99_s", "sim_s"},
        {"recover.durable_overhead_s", "s"},
        {"recover.snapshot_bytes", "bytes"},
        {"recover.snapshot_write_ms", "ms"},
        {"recover.journal_bytes", "bytes"},
        {"recover.replayed_rounds", "count"},
        {"recover.load_s", "s"},
        {"recover.replay_s", "s"},
        {"defrag.rounds", "count"},
        {"defrag.moves", "count"},
        {"defrag.budget_spent", "units"},
        {"defrag.moves_per_round", "count"},
        {"fault.gpu_faults", "count"},
        {"fault.evictions", "count"},
        {"fault.slo_demotions", "count"},
        {"workload.generate_s", "s"},
        {"bench.traced_run_s", "s"},
        {"bench.trace_overhead_s", "s"},
        {"bench.probe_s", "s"},
    };
    return kAll;
}

/** Per-layer values by name; layers a workload never enters stay 0. */
void
emit_layers(const std::map<std::string, double> &values, Report *report)
{
    for (const auto &[name, unit] : layer_metrics()) {
        auto it = values.find(name);
        report->add(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

std::string
journal_dir(const Options &opt, const std::string &tag)
{
    return opt.journal + "/journal-" + opt.workload + "-" + tag;
}

/** Per-case configs of input variant @p variant: churn's fault seed
 *  follows the variant, and with @p journal its runs are journaled. */
std::vector<SimConfig>
configs_for(const SimWorkload &w, const Options &opt, std::uint64_t variant,
            bool journal)
{
    std::vector<SimConfig> configs;
    for (const SimCase &c : w.cases) {
        SimConfig config = c.config;
        if (w.durable_timed) {
            config.faults.seed = derive_seed(7, variant);
            if (journal)
                config = with_journal(config, journal_dir(opt, "timed"));
        }
        configs.push_back(config);
    }
    return configs;
}

std::uint64_t
run_sim_workload(const Options &opt, Report *report)
{
    const SimWorkload w = make_sim_workload(opt);
    const std::uint64_t variant0 = variant_seed(opt.seed, 0);
    const std::vector<SimConfig> configs = configs_for(w, opt, variant0, true);
    double rss_mb = 0.0;
    if (!opt.trace) {
        rss_mb = child_peak_rss_mb([&] {
            Report child;
            run_pass(w, configs, variant0, nullptr, &child, nullptr);
            return child.failed_checks == 0;
        });
        report->check(rss_mb > 0.0, "peak-RSS child run failed");
    }

    SimCase rc = w.cases.front();
    rc.config = configs_for(w, opt, 0, false).front();
    const Crash crash = crash_sim(std::move(generate(w, 0)[rc.trace]), rc,
                                  journal_dir(opt, "resume"), report);

    // Every repetition runs another input variant of this seed, so the
    // median averages over inputs as well as over timing noise; resumes
    // and extra set-ups are spread over the same window. The traced run
    // and the output checks use variant 0.
    Spans spans;
    Spans *trace_spans = opt.trace ? &spans : nullptr;
    std::uint64_t attempted = 0;
    std::vector<double> setup, run, ratio;
    ResumeSamples resumes;
    Pass first;
    std::vector<Trace> traces;
    const std::int64_t start = now_ns();
    for (int rep = 0; keep_going(opt, rep, start); ++rep) {
        const std::uint64_t variant = variant_seed(opt.seed, rep);
        Pass p = run_pass(w, configs_for(w, opt, variant, true), variant,
                          nullptr, report, rep == 0 ? &traces : nullptr);
        setup.push_back(p.setup_s);
        run.push_back(p.run_s);
        ratio.push_back(deadline_ratio(w, p.results));
        for (const RunResult &r : p.results)
            attempted += slo_submissions(r);
        if (rep == 0)
            first = std::move(p);
        for (int k = 0; k < kResumesPerRep; ++k)
            resume_sim(crash, &resumes, trace_spans, report);
        for (int k = 0; !opt.trace && k < kSetupsPerRep; ++k)
            setup.push_back(set_up(w, configs, variant0, nullptr).setup_s);
    }

    if (!opt.trace) {
        report_end_to_end(run, setup, resumes, ratio, rss_mb, report);
        return attempted;
    }

    // --- traced pass -----------------------------------------------------
    Pass traced = run_pass(w, configs, variant0, &spans, report, nullptr);
    SchedAgg agg;
    std::map<std::string, double> v;
    std::uint64_t hash_samples = 0, attempted_replans = 0, coalesced = 0,
                  elided = 0, migrations = 0, place_failures = 0,
                  evictions = 0, gpu_faults = 0, demotions = 0;
    double frag = 0.0, span_excess = 0.0;
    for (std::size_t i = 0; i < traced.results.size(); ++i) {
        const RunResult &r = traced.results[i];
        report->check(r.state_hash == first.results[i].state_hash,
                      "traced and untraced state_hash differ");
        agg.add(*traced.built[i].probe, r.state_hash_samples);
        hash_samples += r.state_hash_samples;
        attempted_replans += static_cast<std::uint64_t>(r.replans_attempted);
        coalesced += static_cast<std::uint64_t>(r.replans_coalesced);
        elided += static_cast<std::uint64_t>(r.replans_elided);
        place_failures += static_cast<std::uint64_t>(r.placement_failures);
        gpu_faults += static_cast<std::uint64_t>(r.gpu_faults);
        demotions += static_cast<std::uint64_t>(r.slo_demotions);
        for (const JobOutcome &o : r.jobs) {
            migrations += static_cast<std::uint64_t>(o.migrations);
            evictions += static_cast<std::uint64_t>(o.failures_suffered);
        }
        frag += average_fragmentation(r);
        span_excess += average_span_excess(r);
    }
    const std::size_t admit_calls = agg.admit_ns.size();
    const double n_runs = static_cast<double>(traced.results.size());
    const double probe_s = sum_s(agg.hash_ns);
    v["sched.admit_calls"] = static_cast<double>(admit_calls);
    v["sched.admit_s"] = sum_s(agg.admit_ns);
    v["sched.admit_p50_us"] = quantile(agg.admit_ns, 0.5) * 1e-3;
    v["sched.admit_p99_us"] = quantile(agg.admit_ns, 0.99) * 1e-3;
    v["sched.allocate_calls"] = static_cast<double>(agg.allocate_ns.size());
    v["sched.allocate_s"] = sum_s(agg.allocate_ns);
    v["sched.allocate_p50_ms"] = quantile(agg.allocate_ns, 0.5) * 1e-6;
    v["sched.allocate_p99_ms"] = quantile(agg.allocate_ns, 0.99) * 1e-6;
    v["sched.admitted_ratio"] =
        admit_calls > 0 ? static_cast<double>(agg.admitted) /
                              static_cast<double>(admit_calls)
                        : 0.0;
    v["sched.view_calls"] = static_cast<double>(agg.view_calls);
    v["sim.self_s"] = traced.run_s - v["sched.admit_s"] -
                      v["sched.allocate_s"] - probe_s;
    v["sim.state_hash_us"] = quantile(agg.hash_ns, 0.5) * 1e-3;
    v["sim.state_hash_s"] = agg.hash_est_s;
    v["sim.hash_samples"] = static_cast<double>(hash_samples);
    v["sim.replans_attempted"] = static_cast<double>(attempted_replans);
    v["sim.replans_coalesced"] = static_cast<double>(coalesced);
    v["sim.replans_elided"] = static_cast<double>(elided);
    v["sim.replans_run_ratio"] =
        attempted_replans > 0
            ? static_cast<double>(attempted_replans - coalesced - elided) /
                  static_cast<double>(attempted_replans)
            : 0.0;
    v["cluster.migrations"] = static_cast<double>(migrations);
    v["cluster.placement_failures"] = static_cast<double>(place_failures);
    v["cluster.avg_fragmentation"] = frag / n_runs;
    v["cluster.avg_span_excess"] = span_excess / n_runs;
    v["fault.gpu_faults"] = static_cast<double>(gpu_faults);
    v["fault.evictions"] = static_cast<double>(evictions);
    v["fault.slo_demotions"] = static_cast<double>(demotions);
    v["workload.generate_s"] = traced.generate_s;
    v["bench.traced_run_s"] = traced.run_s;
    v["bench.trace_overhead_s"] = traced.run_s - first.run_s;
    v["bench.probe_s"] = probe_s;
    std::vector<double> snapshot_ms;
    resume_sim(crash, &resumes, &spans, report, &snapshot_ms);
    v["recover.durable_overhead_s"] = crash.durable_s - crash.reference_s;
    v["recover.snapshot_bytes"] = static_cast<double>(crash.snapshot_bytes);
    v["recover.snapshot_write_ms"] = median(snapshot_ms);
    v["recover.journal_bytes"] = static_cast<double>(crash.journal_bytes);
    v["recover.replayed_rounds"] = static_cast<double>(crash.tail_rounds);
    v["recover.load_s"] = median(resumes.load);
    v["recover.replay_s"] = median(resumes.replay);
    if (w.durable_timed) {
        const RunResult &r = traced.results.front();
        v["defrag.rounds"] = r.defrag_rounds;
        v["defrag.moves"] = r.defrag_moves;
        v["defrag.budget_spent"] = r.defrag_budget_spent;
        v["defrag.moves_per_round"] =
            r.defrag_rounds > 0 ? static_cast<double>(r.defrag_moves) /
                                      r.defrag_rounds
                                : 0.0;
    } else {
        // Faults and defrag evict and relocate outside the allocation
        // log's request stream, so only churn skips the replay.
        PlaceStats place;
        for (std::size_t i = 0; i < traced.results.size(); ++i) {
            const SimCase &c = w.cases[i];
            const Scheduler &s = *traced.built[i].scheduler;
            replay_placement(traced.results[i], w.gens[c.trace].topology,
                             s.placement_strategy(), s.allow_migration(),
                             &spans, &place);
        }
        report->check(place.mismatches == 0,
                      "placement replay did not reproduce " +
                          std::to_string(place.mismatches) +
                          " logged GPU sets");
        v["cluster.place_calls"] = static_cast<double>(place.call_ns.size());
        v["cluster.place_s"] = sum_s(place.call_ns);
        v["cluster.place_p99_us"] = quantile(place.call_ns, 0.99) * 1e-3;
    }
    if (opt.workload == "large") {
        const Trace &trace = traces.front();
        const std::uint64_t hash = first.results.front().state_hash;
        v["sched.allocate_s_sharded_t1"] =
            sharded_allocate_s(trace, 1, hash, &spans, report);
        v["sched.allocate_s_sharded_t4"] =
            sharded_allocate_s(trace, 4, hash, &spans, report);
    }
    emit_layers(v, report);
    const std::string path = opt.out + "/spans-" + opt.workload + ".json";
    report->check(spans.write(path), "writing " + path);
    return attempted;
}

// --- service workload ----------------------------------------------------

constexpr GpuCount kServiceGpus = 64;
constexpr std::size_t kWatermark = 64;
constexpr int kDrainRounds = 60;

serve::ServiceConfig
service_config()
{
    serve::ServiceConfig config;
    config.total_gpus = kServiceGpus;
    config.queue_watermark = kWatermark;
    config.governor.rounds_per_second = 0.5;
    config.governor.burst = 2.0;
    config.governor.starvation_horizon_s = 120.0;
    config.degrade_infeasible = true;
    config.max_active_best_effort = 256;
    return config;
}

/** Set-up of one service run: the stream is drawn up front so the
 *  timed phase is submit() alone. */
struct ServiceSetup
{
    std::vector<serve::Submission> subs;
    std::vector<bool> slo;  ///< by job id
    std::unique_ptr<serve::Service> service;
};

ServiceSetup
service_setup(std::size_t count, std::uint64_t variant)
{
    constexpr double kRate = 0.003;  // jobs per simulated second
    FaultConfig storms;
    const double horizon = static_cast<double>(count) / kRate;
    for (int k = 0; k < 10; ++k) {
        FaultEvent storm;
        storm.type = FaultType::kArrivalStorm;
        storm.time = (k + 0.5) * horizon / 10.0;
        storm.duration_s = 300.0;
        storm.magnitude = 1000.0;
        storms.script.push_back(storm);
    }
    FaultInjector faults(storms);
    serve::StreamConfig stream_config;
    stream_config.topology = TopologySpec::with_total_gpus(kServiceGpus);
    stream_config.arrival_rate = kRate;
    stream_config.seed = derive_seed(42, variant);
    serve::SyntheticStream stream(stream_config, &faults);

    ServiceSetup s;
    s.subs.reserve(count + kDrainRounds);
    for (std::size_t i = 0; i < count; ++i) {
        s.subs.push_back(stream.next());
        s.slo.push_back(!s.subs.back().spec.is_best_effort());
    }
    // Drain: retirement happens only at planning rounds, so one-
    // iteration best-effort submissions every 12 h for 30 days after
    // the stream ends force rounds until every admitted job retired.
    serve::Submission drain = s.subs.back();
    drain.spec.kind = JobKind::kBestEffort;
    drain.spec.deadline = kTimeInfinity;
    drain.spec.iterations = 1;
    for (int k = 1; k <= kDrainRounds; ++k) {
        drain.spec.id = static_cast<JobId>(s.subs.size());
        drain.spec.submit_time += 12.0 * kHour;
        s.subs.push_back(drain);
        s.slo.push_back(false);
    }
    s.service = std::make_unique<serve::Service>(service_config());
    return s;
}

struct ServiceRun
{
    double run_s = 0.0;
    std::uint64_t hash = 0;
    serve::ServiceStats stats;
    std::uint64_t slo_submitted = 0;
    std::uint64_t slo_met = 0;
    std::vector<double> round_ns, fast_ns;
    std::vector<double> latency_s;
};

ServiceRun
service_run(ServiceSetup &s, Spans *spans, Report *report)
{
    ServiceRun out;
    std::vector<std::uint8_t> verdicts(s.subs.size(), 0);
    std::vector<double> *latency = spans != nullptr ? &out.latency_s
                                                    : nullptr;
    s.service->set_decision_callback([&](const serve::Decision &d) {
        if (d.id >= 0 && static_cast<std::size_t>(d.id) < verdicts.size())
            ++verdicts[static_cast<std::size_t>(d.id)];
        if (latency != nullptr)
            latency->push_back(d.decide_time - d.submit_time);
    });
    serve::Service &svc = *s.service;
    bool depth_ok = true;
    const std::int64_t t0 = now_ns();
    for (serve::Submission &sub : s.subs) {
        if (spans == nullptr) {
            svc.submit(std::move(sub));
        } else {
            const std::uint64_t rounds = svc.stats().rounds;
            const std::int32_t span =
                spans->open("serve.submit", -1, sub.spec.id);
            svc.submit(std::move(sub));
            const double ns = static_cast<double>(spans->close(span));
            (svc.stats().rounds != rounds ? out.round_ns : out.fast_ns)
                .push_back(ns);
        }
        depth_ok = depth_ok && svc.queue_depth() <= kWatermark;
    }
    svc.finish();
    out.run_s = seconds_since(t0);

    out.stats = svc.stats();
    out.hash = svc.state_hash();
    bool one_each = true;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        one_each = one_each && verdicts[i] == 1;
        out.slo_submitted += s.slo[i] ? 1 : 0;
    }
    report->check(one_each, "service: a submission without exactly one "
                            "verdict");
    report->check(depth_ok && out.stats.max_queue_depth <= kWatermark,
                  "service: queue depth exceeded the watermark");
    report->check(svc.active_jobs() <= 1,
                  "service: jobs still active after the drain round");
    out.slo_met = out.stats.admitted - out.stats.deadline_misses -
                  out.stats.demotions;
    return out;
}

/** Only the base snapshot: a service resume replays its whole journal,
 *  tens of milliseconds instead of one, which timer noise would swamp. */
constexpr std::uint64_t kServiceSnapshotEvery = 1ULL << 30;

/** Journal the preset stream's first submissions and stop without
 *  finish() (the crash); the resume is bind_durability() + finish(). */
Crash
crash_service(const Options &opt, Report *report)
{
    const std::size_t prefix = opt.tiny ? 100 : 400;
    ServiceSetup plain = service_setup(prefix, 0);
    plain.subs.resize(prefix);  // no drain rounds: end at finish()
    Crash cr;
    cr.dir = journal_dir(opt, "resume");
    {
        const std::int64_t t0 = now_ns();
        for (serve::Submission sub : plain.subs)
            plain.service->submit(std::move(sub));
        cr.reference_s = seconds_since(t0);
        plain.service->finish();
        cr.expected_hash = plain.service->state_hash();
    }
    fresh_dir(cr.dir);
    {
        serve::Service durable(service_config());
        const std::int64_t t0 = now_ns();
        recover::Status st = durable.bind_durability(cr.dir, kServiceSnapshotEvery, false);
        report->check(st.ok(), "service journal: " + st.to_string());
        for (serve::Submission sub : plain.subs)
            durable.submit(std::move(sub));
        cr.durable_s = seconds_since(t0);
    }
    cr.measure_files();
    return cr;
}

void
resume_service(const Crash &cr, ResumeSamples *out, Spans *spans,
               Report *report)
{
    const std::string work = cr.dir + "-resume";
    copy_journal(cr.dir, work);
    serve::Service svc(service_config());
    Spans scratch;
    Spans &sp = spans != nullptr ? *spans : scratch;
    const std::int32_t root = sp.open("recover.resume");
    std::int32_t span = sp.open("recover.load", root);
    recover::Status st = svc.bind_durability(work, kServiceSnapshotEvery, true);
    const double load_ns = static_cast<double>(sp.close(span));
    span = sp.open("recover.replay", root);
    svc.finish();
    const double replay_ns = static_cast<double>(sp.close(span));
    out->total.push_back(static_cast<double>(sp.close(root)) * 1e-9);
    out->load.push_back(load_ns * 1e-9);
    out->replay.push_back(replay_ns * 1e-9);
    report->check(st.ok(), "service resume: " + st.to_string());
    report->check(svc.state_hash() == cr.expected_hash,
                  "service resume state_hash differs from the "
                  "uninterrupted run's");
}

std::uint64_t
run_service_workload(const Options &opt, Report *report)
{
    const std::size_t count = opt.tiny ? 600 : 30000;
    const std::uint64_t variant0 = variant_seed(opt.seed, 0);
    double rss_mb = 0.0;
    if (!opt.trace) {
        rss_mb = child_peak_rss_mb([&] {
            Report child;
            ServiceSetup s = service_setup(count, variant0);
            service_run(s, nullptr, &child);
            return child.failed_checks == 0;
        });
        report->check(rss_mb > 0.0, "peak-RSS child run failed");
    }
    const Crash crash = crash_service(opt, report);
    Spans spans;
    Spans *trace_spans = opt.trace ? &spans : nullptr;
    std::vector<double> setup, run, ratio;
    ResumeSamples resumes;
    std::uint64_t attempted = 0;
    ServiceRun first;
    const std::int64_t start = now_ns();
    for (int rep = 0; keep_going(opt, rep, start); ++rep) {
        const std::int64_t t0 = now_ns();
        ServiceSetup s = service_setup(count, variant_seed(opt.seed, rep));
        setup.push_back(seconds_since(t0));
        ServiceRun r = service_run(s, nullptr, report);
        run.push_back(r.run_s);
        ratio.push_back(static_cast<double>(r.slo_met) /
                        static_cast<double>(r.slo_submitted));
        attempted += r.slo_submitted;
        if (rep == 0)
            first = r;
        for (int k = 0; k < kResumesPerRep; ++k)
            resume_service(crash, &resumes, trace_spans, report);
        for (int k = 0; !opt.trace && k < kSetupsPerRep; ++k) {
            const std::int64_t t1 = now_ns();
            ServiceSetup again = service_setup(count, variant0);
            setup.push_back(seconds_since(t1));
        }
    }

    if (!opt.trace) {
        report_end_to_end(run, setup, resumes, ratio, rss_mb, report);
        return attempted;
    }

    const std::int64_t t0 = now_ns();
    ServiceSetup s = service_setup(count, variant0);
    const double generate_s = seconds_since(t0);
    ServiceRun traced = service_run(s, &spans, report);
    report->check(traced.hash == first.hash,
                  "traced and untraced service state_hash differ");
    std::map<std::string, double> v;
    std::vector<double> all = traced.round_ns;
    all.insert(all.end(), traced.fast_ns.begin(), traced.fast_ns.end());
    const serve::ServiceStats &st = traced.stats;
    v["serve.submit_calls"] = static_cast<double>(all.size());
    v["serve.submit_s"] = sum_s(all);
    v["serve.round_submit_p50_us"] = quantile(traced.round_ns, 0.5) * 1e-3;
    v["serve.round_submit_p99_us"] = quantile(traced.round_ns, 0.99) * 1e-3;
    v["serve.fast_submit_p50_us"] = quantile(traced.fast_ns, 0.5) * 1e-3;
    v["serve.rounds"] = static_cast<double>(st.rounds);
    v["serve.rounds_forced"] = static_cast<double>(st.rounds_forced);
    v["serve.planning_cost_units"] = static_cast<double>(st.planning_cost);
    v["serve.shed_ratio"] = static_cast<double>(st.shed()) /
                            static_cast<double>(st.submitted);
    v["serve.max_queue_depth"] = static_cast<double>(st.max_queue_depth);
    v["serve.decision_latency_p99_s"] = quantile(traced.latency_s, 0.99);
    v["recover.durable_overhead_s"] = crash.durable_s - crash.reference_s;
    v["recover.snapshot_bytes"] = static_cast<double>(crash.snapshot_bytes);
    v["recover.journal_bytes"] = static_cast<double>(crash.journal_bytes);
    v["recover.replayed_rounds"] = static_cast<double>(crash.tail_rounds);
    v["recover.load_s"] = median(resumes.load);
    v["recover.replay_s"] = median(resumes.replay);
    v["workload.generate_s"] = generate_s;
    v["bench.traced_run_s"] = traced.run_s;
    v["bench.trace_overhead_s"] = traced.run_s - first.run_s;
    emit_layers(v, report);
    const std::string path = opt.out + "/spans-" + opt.workload + ".json";
    report->check(spans.write(path), "writing " + path);
    return attempted;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload "
                 "fig08|large|service|churn --seed N --seconds S "
                 "--trace 0|1 --out DIR [--journal DIR] [--tiny]\n",
                 msg);
    return 2;
}

}  // namespace
}  // namespace e2e
}  // namespace ef

int
main(int argc, char **argv)
{
    using namespace ef::e2e;
#ifndef NDEBUG
    (void)argc;
    (void)argv;
    return usage("refusing to measure a build without NDEBUG");
#else
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        try {
            if (arg == "--tiny")
                opt.tiny = true;
            else if (arg == "--workload" && has_value)
                opt.workload = argv[++i];
            else if (arg == "--seed" && has_value)
                opt.seed = std::stoull(argv[++i]);
            else if (arg == "--seconds" && has_value)
                opt.seconds = std::stod(argv[++i]);
            else if (arg == "--trace" && has_value)
                opt.trace = std::string(argv[++i]) == "1";
            else if (arg == "--out" && has_value)
                opt.out = argv[++i];
            else if (arg == "--journal" && has_value)
                opt.journal = argv[++i];
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (opt.workload != "fig08" && opt.workload != "large" &&
        opt.workload != "service" && opt.workload != "churn")
        return usage("unknown workload");
    if (opt.journal.empty())
        opt.journal = opt.out;
    std::filesystem::create_directories(opt.out);
    std::filesystem::create_directories(opt.journal);

    std::printf("{\"context\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"build_type\": \"%s\", \"ndebug\": true, "
                "\"journal_on_tmpfs\": %s, \"tiny\": %s}}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
                EF_E2E_BUILD_TYPE,
                on_tmpfs(opt.journal) ? "true" : "false",
                opt.tiny ? "true" : "false");
    Report report;
    const std::uint64_t attempted =
        opt.workload == "service" ? run_service_workload(opt, &report)
                                  : run_sim_workload(opt, &report);
    report.check(attempted > 0, "no SLO submission was attempted");
    report.print(attempted);
    return report.failed_checks == 0 ? 0 : 1;
#endif
}
