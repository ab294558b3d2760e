// RELEASE-DB (Definition 6): the identity sketch.
//
// S is the identity (the database verbatim, n*d bits plus the row count);
// Q is an exact database query. Space |S| = O(nd); answers are exact under
// all four semantics. One corner of the Theorem 12 min-envelope.
#ifndef IFSKETCH_SKETCH_RELEASE_DB_H_
#define IFSKETCH_SKETCH_RELEASE_DB_H_

#include "sketch/column_sample_estimator.h"

namespace ifsketch::sketch {

/// The verbatim-database sketch: n rows of d bits (a row-major payload),
/// answered exactly as the sample frequency over every row.
class ReleaseDbSketch : public RowMajorSketch {
 public:
  std::string name() const override { return "RELEASE-DB"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::unique_ptr<core::FrequencyEstimator> LoadEstimatorFromColumns(
      core::ColumnStore columns, const util::BitVector& summary,
      const core::SketchParams& params, std::size_t d,
      std::size_t n) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  /// Recovers the database itself (unique to this sketch; used by tests).
  static core::Database Decode(const util::BitVector& summary, std::size_t d,
                               std::size_t n);
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_RELEASE_DB_H_
