// The Theorem 17 transform: For-Each estimator -> For-All estimator.
//
// S' stores m = ceil(10 * ln(C(d,k)/delta)) independent copies of the
// inner For-Each summary; Q' answers with the median of the m per-copy
// answers. Chernoff + union bound give the For-All guarantee. The paper
// uses this reduction to transfer the Theorem 16 lower bound to the
// For-Each case; we implement it as a reusable combinator.
#ifndef IFSKETCH_SKETCH_MEDIAN_BOOST_H_
#define IFSKETCH_SKETCH_MEDIAN_BOOST_H_

#include <memory>

#include "sketch/column_sample_estimator.h"

namespace ifsketch::sketch {

/// Wraps a For-Each estimator algorithm into a For-All one via
/// median-of-copies. Copies of a row-major inner are m*s rows, answered
/// as m row groups of one column store; other inners load copy by copy.
class MedianBoostSketch : public RowMajorSketch {
 public:
  /// `inner` is run with Scope::kForEach regardless of the outer scope;
  /// `copies_scale` multiplies the copy count (1.0 = the paper's 10 ln(..)).
  explicit MedianBoostSketch(std::shared_ptr<core::SketchAlgorithm> inner,
                             double copies_scale = 1.0);

  std::string name() const override;

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const core::SketchParams& params,
      std::size_t d, std::size_t n) const override;

  /// True when the copies are samples answered by their sample
  /// frequencies: a row-major inner that is not itself MEDIAN-BOOST.
  bool HasRowMajorPayload(const core::SketchParams& params) const override {
    return inner_->HasRowMajorPayload(InnerParams(params)) &&
           dynamic_cast<const MedianBoostSketch*>(inner_.get()) == nullptr;
  }

  std::unique_ptr<core::FrequencyEstimator> LoadEstimatorFromColumns(
      core::ColumnStore columns, const util::BitVector& summary,
      const core::SketchParams& params, std::size_t d,
      std::size_t n) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  /// Delegates to the inner algorithm (a copy answers what it answers).
  bool SupportsQuerySize(std::size_t size,
                         const core::SketchParams& params) const override;

  /// Number of inner copies for the given parameters:
  /// ceil(copies_scale * 10 * ln(C(d,k)/delta)), odd (so medians are
  /// well-defined single answers) and at least 1.
  std::size_t CopyCount(const core::SketchParams& params, std::size_t d) const;

 private:
  /// The inner algorithm's parameter set: same (k, eps) but For-Each scope
  /// and constant failure probability 1/4 (< 1/2 as Theorem 17 requires).
  static core::SketchParams InnerParams(const core::SketchParams& outer);

  std::shared_ptr<core::SketchAlgorithm> inner_;
  double copies_scale_;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_MEDIAN_BOOST_H_
