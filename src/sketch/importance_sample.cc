#include "sketch/importance_sample.h"

#include <algorithm>
#include <cmath>

#include "core/column_store.h"
#include "sketch/column_sample_estimator.h"
#include "sketch/subsample.h"
#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {

ImportanceSampleSketch::ImportanceSampleSketch()
    : weight_([](const util::BitVector& row) {
        return static_cast<double>(row.Count() + 1);
      }) {}

ImportanceSampleSketch::ImportanceSampleSketch(WeightFn weight)
    : weight_(std::move(weight)) {
  IFSKETCH_CHECK(weight_ != nullptr);
}

std::size_t ImportanceSampleSketch::SampleCount(
    const core::SketchParams& params, std::size_t d) {
  return SubsampleSketch::SampleCount(params, d);
}

util::BitVector ImportanceSampleSketch::Build(
    const core::Database& db, const core::SketchParams& params,
    util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t n = db.num_rows();
  // Cumulative weights for inverse-CDF sampling.
  std::vector<double> cumulative(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = weight_(db.Row(i));
    IFSKETCH_CHECK_GT(w, 0.0);
    total += w;
    cumulative[i] = total;
  }
  const double mean_weight = total / static_cast<double>(n);

  const std::size_t s = SampleCount(params, db.num_columns());
  util::BitWriter writer;
  // mean_w as a fixed-point value scaled by 2^20 (enough for d <= ~2^40).
  writer.WriteUint(
      static_cast<std::uint64_t>(std::llround(mean_weight * (1 << 20))),
      kWeightBits);
  for (std::size_t i = 0; i < s; ++i) {
    const double u = rng.UniformDouble() * total;
    // Binary search the cumulative array.
    std::size_t lo = 0, hi = n - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cumulative[mid] <= u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    writer.WriteBits(db.Row(lo));
  }
  return writer.Finish();
}

std::unique_ptr<core::FrequencyEstimator>
ImportanceSampleSketch::LoadEstimator(const util::BitVector& summary,
                                      const core::SketchParams& /*params*/,
                                      std::size_t d,
                                      std::size_t /*n*/) const {
  util::BitReader reader(summary);
  const double mean_weight =
      static_cast<double>(reader.ReadUint(kWeightBits)) /
      static_cast<double>(1 << 20);
  IFSKETCH_CHECK_EQ(reader.Remaining() % d, 0u);
  const std::size_t s = reader.Remaining() / d;
  // Horvitz-Thompson: with q_i proportional to w(r_i),
  // E[(1/s) sum I{T in r_i} * mean_w / w(r_i)] = f_T. The weight
  // function sees each row as a view over one reused scratch row.
  std::vector<double> coefficients(s);
  std::vector<std::uint64_t> row((d + 63) / 64);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t w = 0; w < row.size(); ++w) {
      row[w] = summary.GetBits(kWeightBits + i * d + w * 64,
                               std::min<std::size_t>(64, d - w * 64));
    }
    coefficients[i] = mean_weight / weight_(util::BitVector::View(row.data(), d));
  }
  return std::make_unique<ColumnSampleEstimator>(
      core::ColumnStore::FromRowMajorBits(summary, d, {{kWeightBits, s, d}}),
      std::move(coefficients));
}

std::size_t ImportanceSampleSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d,
    const core::SketchParams& params) const {
  return kWeightBits + SampleCount(params, d) * d;
}

}  // namespace ifsketch::sketch
