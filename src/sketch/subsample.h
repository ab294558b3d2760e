// SUBSAMPLE (Definition 8): uniform row sampling with replacement.
//
// The summary is s sampled rows (s*d bits) where s follows Lemma 9:
//   for-each indicator:  s = O(eps^-1 log(1/delta))
//   for-each estimator:  s = O(eps^-2 log(1/delta))
//   for-all  indicator:  s = O(eps^-1 log(C(d,k)/delta))
//   for-all  estimator:  s = O(eps^-2 log(C(d,k)/delta))
// Q evaluates the query on the sample. The paper's lower bounds show this
// is space optimal (up to constant / iterated-log factors) on hard inputs.
#ifndef IFSKETCH_SKETCH_SUBSAMPLE_H_
#define IFSKETCH_SKETCH_SUBSAMPLE_H_

#include "sketch/column_sample_estimator.h"

namespace ifsketch::sketch {

/// The uniform-row-sampling sketch. The summary is exactly s rows of d
/// bits (a row-major payload), answered with the sample frequency.
class SubsampleSketch : public RowMajorSketch {
 public:
  std::string name() const override { return "SUBSAMPLE"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;

  std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                const core::SketchParams& params) const override;

  /// The Lemma 9 sample count for the given guarantee.
  static std::size_t SampleCount(const core::SketchParams& params,
                                 std::size_t d);

  /// Recovers the sampled rows as a database (the sample is itself a
  /// database; mining tools run on it directly).
  static core::Database DecodeSample(const util::BitVector& summary,
                                     std::size_t d);
};

/// SUBSAMPLE drawing rows WITHOUT replacement (when s <= n; falls back to
/// with-replacement otherwise). Identical summary format and loaders;
/// hypergeometric concentration strictly dominates binomial, so every
/// Lemma 9 guarantee carries over with the same sample counts.
class SubsampleWithoutReplacementSketch : public SubsampleSketch {
 public:
  std::string name() const override { return "SUBSAMPLE-WOR"; }

  util::BitVector Build(const core::Database& db,
                        const core::SketchParams& params,
                        util::Rng& rng) const override;
};

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_SUBSAMPLE_H_
