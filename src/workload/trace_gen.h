/**
 * @file
 * Synthetic production-like trace generation.
 *
 * Substitutes for the paper's two-month traces from ten production
 * clusters and the public Microsoft Philly trace (§6.1). The generator
 * reproduces the statistical features the experiments depend on:
 * Poisson arrivals with diurnal modulation and occasional bursts,
 * a GPU-request distribution skewed toward small power-of-two jobs,
 * log-normal durations spanning minutes to days, Table 1 model/batch
 * sampling, and deadline tightness lambda ~ U[0.5, 1.5]. Ten cluster
 * presets (#1..#10) and a Philly-like preset cover the range of
 * cluster sizes and loads used in Fig. 8(b); the testbed presets match
 * Fig. 6 (25 jobs / 32 GPUs and 195 jobs / 128 GPUs).
 */
#ifndef EF_WORKLOAD_TRACE_GEN_H_
#define EF_WORKLOAD_TRACE_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.h"

namespace ef {

class Rng;

/** Knobs of the synthetic trace generator. */
struct TraceGenConfig
{
    std::string name = "synthetic";
    TopologySpec topology;

    int num_jobs = 100;

    /** Mean interarrival time (seconds) before modulation. */
    double mean_interarrival_s = 600.0;
    /** Diurnal modulation depth in [0, 1): 0 disables. */
    double diurnal_depth = 0.5;
    /** Probability that an arrival starts a burst of extra jobs. */
    double burst_probability = 0.05;
    /** Jobs per burst (uniform 2..burst_max_jobs). */
    int burst_max_jobs = 6;

    /** Log-normal duration parameters (of the underlying normal). */
    double duration_log_mean = 8.3;   ///< exp(8.3) ~ 4000 s
    double duration_log_sigma = 1.2;
    double min_duration_s = 300.0;
    double max_duration_s = 3.0 * kDay;

    /** Weights for requested GPU counts 1, 2, 4, 8, 16, 32, ... */
    std::vector<double> gpu_size_weights = {0.30, 0.15, 0.17, 0.25,
                                            0.09, 0.04};

    /** Deadline tightness range (paper: U[0.5, 1.5]). */
    double tightness_lo = 0.5;
    double tightness_hi = 1.5;

    /** Fraction of jobs submitted without a deadline (§6.5). */
    double best_effort_fraction = 0.0;

    /** Fraction of jobs whose deadline is soft (§4.4). */
    double soft_deadline_fraction = 0.0;

    /** Number of synthetic submitting users ("user-0".."user-N-1"). */
    int num_users = 8;

    std::uint64_t seed = 1;
};

/** Generates reproducible traces from a config. */
class TraceGenerator
{
  public:
    /** Generate a trace (deterministic in config.seed). */
    static Trace generate(const TraceGenConfig &config);
};

/**
 * Cluster presets #1..#10 for Fig. 8(b): cluster sizes from 64 to 512
 * GPUs with loads from under- to over-subscribed (the paper's traces
 * span 164-2,783 GPUs and 260-15,802 jobs; presets are scaled down
 * proportionally to keep the benches fast, preserving the
 * load-per-GPU ratios).
 */
TraceGenConfig cluster_preset(int index);

/** Philly-like preset: smaller jobs, heavier queueing, bursty. */
TraceGenConfig philly_preset();

/** Fig. 6(a): 25 jobs on 4 servers x 8 GPUs. */
TraceGenConfig testbed_small_preset();

/** Fig. 6(b) / Fig. 8(a): 195 jobs on 16 servers x 8 GPUs. */
TraceGenConfig testbed_large_preset();

/**
 * Churn-heavy preset: many short jobs with mixed power-of-two sizes
 * arriving in bursts on a 64-GPU cluster. Completions keep punching
 * odd-sized holes, so greedy-only (non-migrating) scheduling fragments
 * and ElasticFlow's migrating repack (§4.3) has work to do.
 */
TraceGenConfig churn_preset();

}  // namespace ef

#endif  // EF_WORKLOAD_TRACE_GEN_H_
