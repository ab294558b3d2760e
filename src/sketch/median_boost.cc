#include "sketch/median_boost.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"
#include "util/combinatorics.h"

namespace ifsketch::sketch {
namespace {

/// The median over separately loaded copies, for inners whose copies are
/// not row groups (no row-major payload): every query goes through each
/// copy's batched path, whose answers equal its scalar ones.
class MedianEstimator : public core::FrequencyEstimator {
 public:
  explicit MedianEstimator(
      std::vector<std::unique_ptr<core::FrequencyEstimator>> copies)
      : copies_(std::move(copies)) {}

  double EstimateFrequency(const core::Itemset& t) const override {
    core::QueryBatch batch(t.universe());
    batch.Add(t);
    std::vector<double> answer;
    EstimateMany(batch, &answer);
    return answer[0];
  }

  using core::FrequencyEstimator::EstimateMany;
  void EstimateMany(const core::QueryBatch& batch,
                    std::vector<double>* answers) const override {
    std::vector<std::vector<double>> per_copy(copies_.size());
    for (std::size_t c = 0; c < copies_.size(); ++c) {
      copies_[c]->EstimateMany(batch, &per_copy[c]);
    }
    answers->resize(batch.size());
    std::vector<double> column(copies_.size());
    for (std::size_t q = 0; q < batch.size(); ++q) {
      for (std::size_t c = 0; c < copies_.size(); ++c) {
        column[c] = per_copy[c][q];
      }
      std::nth_element(column.begin(), column.begin() + column.size() / 2,
                       column.end());
      (*answers)[q] = column[column.size() / 2];
    }
  }

 private:
  std::vector<std::unique_ptr<core::FrequencyEstimator>> copies_;
};

/// The m copies as m equal row groups. Dividing by the copy size is
/// monotone, so the median frequency is the median count over it: the
/// same double, for one division instead of m.
std::unique_ptr<core::FrequencyEstimator> MedianOfRowGroups(
    core::ColumnStore columns, std::size_t copies) {
  IFSKETCH_CHECK_EQ(columns.num_rows() % copies, 0u);
  const std::size_t rows = columns.num_rows() / copies;
  std::vector<std::size_t> bounds(copies + 1);
  for (std::size_t c = 0; c <= copies; ++c) bounds[c] = c * rows;
  auto median = [rows](std::span<const std::size_t> counts,
                       std::span<double> values) {
    std::copy(counts.begin(), counts.end(), values.begin());
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    return rows == 0 ? 0.0
                     : values[values.size() / 2] / static_cast<double>(rows);
  };
  return std::make_unique<ColumnSampleEstimator>(
      std::move(columns), std::move(bounds), std::move(median));
}

/// ORs the words of `bits` into `out` starting at bit `at`.
void OrBitsAt(const util::BitVector& bits, std::size_t at,
              std::vector<std::uint64_t>* out) {
  const std::size_t shift = at & 63;
  std::uint64_t* dst = out->data() + (at >> 6);
  for (std::size_t w = 0; w < bits.num_words(); ++w) {
    const std::uint64_t word = bits.data()[w];
    dst[w] |= word << shift;
    if (shift != 0 && (word >> (64 - shift)) != 0) {
      dst[w + 1] |= word >> (64 - shift);
    }
  }
}

}  // namespace

MedianBoostSketch::MedianBoostSketch(
    std::shared_ptr<core::SketchAlgorithm> inner, double copies_scale)
    : inner_(std::move(inner)), copies_scale_(copies_scale) {
  IFSKETCH_CHECK(inner_ != nullptr);
  IFSKETCH_CHECK_GT(copies_scale_, 0.0);
}

std::string MedianBoostSketch::name() const {
  return "MEDIAN-BOOST(" + inner_->name() + ")";
}

core::SketchParams MedianBoostSketch::InnerParams(
    const core::SketchParams& outer) {
  core::SketchParams inner = outer;
  inner.scope = core::Scope::kForEach;
  inner.answer = core::Answer::kEstimator;
  inner.delta = 0.25;
  return inner;
}

std::size_t MedianBoostSketch::CopyCount(const core::SketchParams& params,
                                         std::size_t d) const {
  const double ln_term =
      util::LogBinomial(d, params.k) - std::log(params.delta);
  std::size_t m = static_cast<std::size_t>(
      std::ceil(copies_scale_ * 10.0 * std::max(ln_term, 1.0)));
  if (m % 2 == 0) ++m;
  return m;
}

util::BitVector MedianBoostSketch::Build(const core::Database& db,
                                         const core::SketchParams& params,
                                         util::Rng& rng) const {
  const core::SketchParams ip = InnerParams(params);
  const std::size_t m = CopyCount(params, db.num_columns());
  const std::size_t inner_bits =
      inner_->PredictedSizeBits(db.num_rows(), db.num_columns(), ip);
  std::vector<std::uint64_t> words((m * inner_bits + 63) / 64, 0);
  for (std::size_t c = 0; c < m; ++c) {
    const util::BitVector copy = inner_->Build(db, ip, rng);
    IFSKETCH_CHECK_EQ(copy.size(), inner_bits);
    OrBitsAt(copy, c * inner_bits, &words);
  }
  return util::BitVector::AdoptWords(std::move(words), m * inner_bits);
}

std::unique_ptr<core::FrequencyEstimator> MedianBoostSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t n) const {
  if (HasRowMajorPayload(params)) {
    return RowMajorSketch::LoadEstimator(summary, params, d, n);
  }
  const core::SketchParams ip = InnerParams(params);
  const std::size_t m = CopyCount(params, d);
  IFSKETCH_CHECK_EQ(summary.size() % m, 0u);
  const std::size_t inner_bits = summary.size() / m;
  std::vector<std::unique_ptr<core::FrequencyEstimator>> copies;
  copies.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    copies.push_back(inner_->LoadEstimator(
        summary.Slice(c * inner_bits, inner_bits), ip, d, n));
  }
  return std::make_unique<MedianEstimator>(std::move(copies));
}

std::unique_ptr<core::FrequencyEstimator>
MedianBoostSketch::LoadEstimatorFromColumns(core::ColumnStore columns,
                                            const util::BitVector& summary,
                                            const core::SketchParams& params,
                                            std::size_t d,
                                            std::size_t /*n*/) const {
  IFSKETCH_CHECK(HasRowMajorPayload(params));
  IFSKETCH_CHECK_EQ(columns.num_rows() * d, summary.size());
  return MedianOfRowGroups(std::move(columns), CopyCount(params, d));
}

std::size_t MedianBoostSketch::PredictedSizeBits(
    std::size_t n, std::size_t d, const core::SketchParams& params) const {
  return CopyCount(params, d) *
         inner_->PredictedSizeBits(n, d, InnerParams(params));
}

bool MedianBoostSketch::SupportsQuerySize(
    std::size_t size, const core::SketchParams& params) const {
  return inner_->SupportsQuerySize(size, InnerParams(params));
}

}  // namespace ifsketch::sketch
