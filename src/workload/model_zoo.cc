#include "workload/model_zoo.h"

#include "common/check.h"

namespace ef {
namespace {

// Per-sample costs approximate fp32 training on an A100-40GB-class GPU;
// parameter payloads are the published model sizes. fixed_overhead_s is
// the per-iteration floor (kernel launches, optimizer step, Python/DDP
// bookkeeping) that caps strong scaling, calibrated so VGG16 lands near
// the paper's 76% efficiency at 8 intra-server GPUs.
const std::vector<ModelProfile> &
profiles()
{
    static const std::vector<ModelProfile> kProfiles = {
        {DnnModel::kResNet50, "ResNet50", "CV", "ImageNet",
         0.0975, 1.10e-3, 5.0e-3, 256, {64, 128, 256}, 0.10},
        {DnnModel::kVgg16, "VGG16", "CV", "ImageNet",
         0.528, 4.00e-3, 10.0e-3, 256, {64, 128, 256}, 0.53},
        {DnnModel::kInceptionV3, "InceptionV3", "CV", "ImageNet",
         0.091, 1.60e-3, 7.0e-3, 128, {64, 128}, 0.10},
        {DnnModel::kBert, "BERT", "NLP", "CoLA",
         0.420, 5.00e-3, 8.0e-3, 64, {64, 128}, 0.42},
        {DnnModel::kGpt2, "GPT-2", "NLP", "aclImdb V1",
         0.475, 8.00e-3, 8.0e-3, 32, {128, 256}, 0.48},
        {DnnModel::kDeepSpeech2, "DeepSpeech2", "Speech Recognition",
         "LibriSpeech", 0.330, 10.0e-3, 12.0e-3, 32, {32, 64}, 0.33},
    };
    return kProfiles;
}

}  // namespace

const std::vector<DnnModel> &
all_models()
{
    static const std::vector<DnnModel> kModels = {
        DnnModel::kResNet50, DnnModel::kVgg16, DnnModel::kInceptionV3,
        DnnModel::kBert, DnnModel::kGpt2, DnnModel::kDeepSpeech2,
    };
    return kModels;
}

const ModelProfile &
model_profile(DnnModel model)
{
    for (const auto &profile : profiles()) {
        if (profile.model == model)
            return profile;
    }
    EF_CHECK_MSG(false, "unknown model enum "
                            << static_cast<int>(model));
    return profiles().front();  // unreachable
}

const std::string &
model_name(DnnModel model)
{
    return model_profile(model).name;
}

std::optional<DnnModel>
find_model(const std::string &name)
{
    for (const auto &profile : profiles()) {
        if (profile.name == name)
            return profile.model;
    }
    return std::nullopt;
}

DnnModel
model_from_name(const std::string &name)
{
    const std::optional<DnnModel> model = find_model(name);
    EF_FATAL_IF(!model.has_value(), "unknown model name '" << name << "'");
    return *model;
}

}  // namespace ef
