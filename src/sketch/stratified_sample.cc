#include "sketch/stratified_sample.h"

#include <cmath>
#include <span>
#include <vector>

#include "sketch/column_sample_estimator.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {
namespace {

constexpr int kWeightBits = 32;  // fixed-point stratum weights

}  // namespace

StratifiedSampler::StratifiedSampler(std::size_t strata) : strata_(strata) {
  IFSKETCH_CHECK_GE(strata, 1u);
}

util::BitVector StratifiedSampler::Build(const core::Database& db,
                                         std::size_t total_samples,
                                         util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  IFSKETCH_CHECK_GT(total_samples, 0u);
  const std::size_t d = db.num_columns();
  // Partition row indices by popcount bucket.
  std::vector<std::vector<std::size_t>> members(strata_);
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    const std::size_t pc = db.Row(i).Count();
    const std::size_t bucket =
        std::min(strata_ - 1, pc * strata_ / (d + 1));
    members[bucket].push_back(i);
  }
  util::BitWriter w;
  w.WriteUint(strata_, 16);
  for (std::size_t h = 0; h < strata_; ++h) {
    const double weight = static_cast<double>(members[h].size()) /
                          static_cast<double>(db.num_rows());
    std::size_t s_h = 0;
    if (!members[h].empty()) {
      s_h = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(
                 weight * static_cast<double>(total_samples))));
    }
    w.WriteUint(s_h, 32);
    w.WriteQuantized(weight, kWeightBits);
    for (std::size_t j = 0; j < s_h; ++j) {
      const std::size_t pick =
          members[h][rng.UniformInt(members[h].size())];
      w.WriteBits(db.Row(pick));
    }
  }
  return w.Finish();
}

std::unique_ptr<core::FrequencyEstimator> StratifiedSampler::Load(
    const util::BitVector& summary, std::size_t d) const {
  // Each stratum's sample is one row group after its size and weight.
  util::BitReader r(summary);
  const std::size_t strata = r.ReadUint(16);
  std::vector<double> weights;  // n_h / n
  std::vector<core::ColumnStore::RowRun> runs;
  std::vector<std::size_t> bounds = {0};
  for (std::size_t h = 0; h < strata; ++h) {
    const std::size_t s_h = r.ReadUint(32);
    weights.push_back(r.ReadQuantized(kWeightBits));
    runs.push_back({r.Position(), s_h, d});
    r.Skip(s_h * d);
    bounds.push_back(bounds.back() + s_h);
  }
  // f = sum_h weight_h * f_h(sample_h) over the sampled strata, ascending.
  auto rule = [weights, bounds](std::span<const std::size_t> support,
                                std::span<double>) {
    double acc = 0.0;
    for (std::size_t h = 0; h < weights.size(); ++h) {
      const std::size_t rows = bounds[h + 1] - bounds[h];
      if (rows > 0) {
        acc += weights[h] * (static_cast<double>(support[h]) /
                             static_cast<double>(rows));
      }
    }
    return acc < 0.0 ? 0.0 : (acc > 1.0 ? 1.0 : acc);
  };
  return std::make_unique<ColumnSampleEstimator>(
      core::ColumnStore::FromRowMajorBits(summary, d, runs), std::move(bounds),
      std::move(rule));
}

}  // namespace ifsketch::sketch
