/**
 * @file
 * The DNN model pool of the paper's evaluation (Table 1): six models
 * across CV, NLP, and speech recognition, each with the batch sizes the
 * paper samples from, plus the per-model constants the performance
 * model needs (parameter size, per-sample compute cost, per-iteration
 * overhead, GPU-memory-bound maximum local batch, and checkpoint size
 * for scaling-overhead estimation).
 *
 * The constants are calibrated to an A100-40GB-class device so that the
 * derived scaling curves match the shapes the paper reports in Fig. 2.
 */
#ifndef EF_WORKLOAD_MODEL_ZOO_H_
#define EF_WORKLOAD_MODEL_ZOO_H_

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace ef {

/** Models from Table 1. */
enum class DnnModel {
    kResNet50 = 0,
    kVgg16,
    kInceptionV3,
    kBert,
    kGpt2,
    kDeepSpeech2,
};

/** Number of models in the zoo. */
inline constexpr int kNumModels = 6;

/** Last enumerator; snapshot decoders range-check against it. */
constexpr DnnModel enum_last(DnnModel) { return DnnModel::kDeepSpeech2; }

/** All models, for iteration in tests/benches. */
const std::vector<DnnModel> &all_models();

/** Per-model constants consumed by PerfModel and OverheadModel. */
struct ModelProfile
{
    DnnModel model;
    std::string name;
    std::string task;     ///< CV / NLP / Speech Recognition (Table 1)
    std::string dataset;  ///< dataset named in Table 1

    double param_gb;          ///< gradient/parameter payload per all-reduce
    double per_sample_s;      ///< fwd+bwd seconds per sample on one GPU
    double fixed_overhead_s;  ///< per-iteration launch/sync floor
    int max_local_batch;      ///< per-GPU memory bound on the local batch

    /** Batch sizes the paper samples for this model (Table 1). */
    std::vector<int> batch_sizes;

    /** Checkpoint payload for scaling/migration overhead (GB). */
    double checkpoint_gb;
};

/** Profile lookup (aborts on an unknown model). */
const ModelProfile &model_profile(DnnModel model);

/** Model name, e.g. "ResNet50". */
const std::string &model_name(DnnModel model);

/** Parse a model name (case-sensitive, as printed); nullopt on miss. */
std::optional<DnnModel> find_model(const std::string &name);

/** find_model() that aborts on a miss. */
DnnModel model_from_name(const std::string &name);

}  // namespace ef

#endif  // EF_WORKLOAD_MODEL_ZOO_H_
