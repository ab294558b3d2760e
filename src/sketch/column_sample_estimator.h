// One query view for every sample-based sketch. The loaders decode the
// sample rows -- uniform, weighted, stratified, or MEDIAN-BOOST's m
// copies -- into one core::ColumnStore (or adopt the mapped column
// section); a query ANDs its columns once, the rows containing T, and
// combines them in one of three shapes:
//   uniform    f = rows containing T / rows (ColumnStore::SupportCounts);
//   per group  one popcount per contiguous group of rows, fed to the
//              loader's rule (a stratum-weighted sum, a median of copies);
//   per row    f = clamp01(sum of the coefficients of the rows containing
//              T, ascending, / rows) -- the Horvitz-Thompson samplers.
// Each shape sums in the order its algorithm always has, so answers are
// bit-identical to a row-by-row scan at any batch size, thread count and
// kernel tier. Views are immutable and safe to query concurrently; the
// indicator is core::ThresholdIndicator over the estimator at 3eps/4.
#ifndef IFSKETCH_SKETCH_COLUMN_SAMPLE_ESTIMATOR_H_
#define IFSKETCH_SKETCH_COLUMN_SAMPLE_ESTIMATOR_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/column_store.h"
#include "core/sketch.h"
#include "util/check.h"

namespace ifsketch::sketch {

/// Frequency estimator over sample rows held as columns.
class ColumnSampleEstimator final : public core::FrequencyEstimator {
 public:
  /// counts[g] = rows of group g containing the query; the rule may
  /// overwrite `scratch` (one double per group). Called concurrently.
  using GroupRule = std::function<double(std::span<const std::size_t> counts,
                                         std::span<double> scratch)>;

  /// Uniform (0 with no rows).
  explicit ColumnSampleEstimator(core::ColumnStore columns);
  /// Per group: group g is rows [bounds[g], bounds[g+1]), bounds
  /// ascending from 0 to the row count.
  ColumnSampleEstimator(core::ColumnStore columns,
                        std::vector<std::size_t> bounds, GroupRule rule);
  /// Per row: one coefficient per row.
  ColumnSampleEstimator(core::ColumnStore columns,
                        std::vector<double> coefficients);

  double EstimateFrequency(const core::Itemset& t) const override;
  using core::FrequencyEstimator::EstimateMany;
  void EstimateMany(const core::QueryBatch& batch,
                    std::vector<double>* answers) const override;

 private:
  // Per group or per row: answers queries [first, last) of `batch` into
  // answers[first..last), reading attribute ids straight from the batch.
  void EstimateRange(const core::QueryBatch& batch, std::size_t first,
                     std::size_t last, double* answers) const;

  // The shape: per group when rule_ is set, else per row when there are
  // coefficients, else uniform (a per-row view of no rows answers 0,
  // exactly like a uniform one).
  core::ColumnStore columns_;
  std::vector<std::size_t> bounds_;
  GroupRule rule_;
  std::vector<double> coefficients_;  // ascending row order
};

/// Base of the algorithms whose payload is rows of d bits and nothing
/// else (core::SketchAlgorithm::HasRowMajorPayload), by default one
/// sample answered by its sample frequency. Every load meets in
/// LoadEstimatorFromColumns -- an image's column section is adopted as
/// is, the decoding loader transposes the summary first -- and the
/// indicators threshold it at 3eps/4.
class RowMajorSketch : public core::SketchAlgorithm {
 public:
  bool HasRowMajorPayload(const core::SketchParams&) const override {
    return true;
  }

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override {
    return LoadEstimatorFromColumns(
        core::ColumnStore::FromRowMajorBits(summary, d), summary, params, d,
        n);
  }

  std::unique_ptr<core::FrequencyEstimator> LoadEstimatorFromColumns(
      core::ColumnStore columns, const util::BitVector& summary,
      const core::SketchParams& /*params*/, std::size_t d,
      std::size_t /*n*/) const override {
    IFSKETCH_CHECK_EQ(columns.num_columns(), d);
    IFSKETCH_CHECK_EQ(columns.num_rows() * d, summary.size());
    return std::make_unique<ColumnSampleEstimator>(std::move(columns));
  }

  std::unique_ptr<core::FrequencyIndicator> LoadIndicatorFromColumns(
      core::ColumnStore columns, const util::BitVector& summary,
      const core::SketchParams& params, std::size_t d,
      std::size_t n) const override {
    return std::make_unique<core::ThresholdIndicator>(
        LoadEstimatorFromColumns(std::move(columns), summary, params, d, n),
        0.75 * params.eps);
  }
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_COLUMN_SAMPLE_ESTIMATOR_H_
