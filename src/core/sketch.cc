#include "core/sketch.h"

#include <cmath>

#include "util/thread_pool.h"

namespace ifsketch::core {
namespace {

// Minimum queries per chunk for the default batched paths. Scalar
// EstimateFrequency/IsFrequent calls scan whole summaries, so even small
// chunks amortize the scheduling cost.
constexpr std::size_t kBatchGrain = 8;

}  // namespace

bool ValidSketchParams(const SketchParams& params) {
  return params.k >= 1 && std::isfinite(params.eps) && params.eps > 0.0 &&
         params.eps <= 1.0 && std::isfinite(params.delta) &&
         params.delta > 0.0 && params.delta < 1.0;
}

const char* ToString(Scope scope) {
  switch (scope) {
    case Scope::kForAll:
      return "for-all";
    case Scope::kForEach:
      return "for-each";
  }
  return "?";
}

const char* ToString(Answer answer) {
  switch (answer) {
    case Answer::kIndicator:
      return "indicator";
    case Answer::kEstimator:
      return "estimator";
  }
  return "?";
}

void FrequencyEstimator::EstimateMany(const QueryBatch& batch,
                                      std::vector<double>* answers) const {
  answers->resize(batch.size());
  double* out = answers->data();
  util::ThreadPool::Default().ParallelFor(
      0, batch.size(), kBatchGrain,
      [this, &batch, out](std::size_t first, std::size_t last) {
        Itemset scratch(batch.universe());
        for (std::size_t i = first; i < last; ++i) {
          batch.CopyTo(i, &scratch);
          out[i] = EstimateFrequency(scratch);
        }
      });
}

void FrequencyIndicator::AreFrequent(const QueryBatch& batch,
                                     std::vector<bool>* answers) const {
  // std::vector<bool> packs bits, so concurrent writes to distinct
  // indices race; collect into bytes and copy once at the end.
  std::vector<char> bits(batch.size());
  char* out = bits.data();
  util::ThreadPool::Default().ParallelFor(
      0, batch.size(), kBatchGrain,
      [this, &batch, out](std::size_t first, std::size_t last) {
        Itemset scratch(batch.universe());
        for (std::size_t i = first; i < last; ++i) {
          batch.CopyTo(i, &scratch);
          out[i] = IsFrequent(scratch) ? 1 : 0;
        }
      });
  answers->assign(bits.begin(), bits.end());
}

void ThresholdIndicator::AreFrequent(const QueryBatch& batch,
                                     std::vector<bool>* answers) const {
  std::vector<double> estimates;
  estimator_->EstimateMany(batch, &estimates);
  answers->resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (*answers)[i] = estimates[i] >= threshold_;
  }
}

std::unique_ptr<FrequencyIndicator> SketchAlgorithm::LoadIndicator(
    const util::BitVector& summary, const SketchParams& params, std::size_t d,
    std::size_t n) const {
  return std::make_unique<ThresholdIndicator>(
      LoadEstimator(summary, params, d, n), 0.75 * params.eps);
}

}  // namespace ifsketch::core
