#include "sketch/subsample.h"

#include "sketch/release_db.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/stats.h"

namespace ifsketch::sketch {

std::size_t SubsampleSketch::SampleCount(const core::SketchParams& params,
                                         std::size_t d) {
  switch (params.scope) {
    case core::Scope::kForEach:
      return params.answer == core::Answer::kIndicator
                 ? util::IndicatorSampleCount(params.eps, params.delta)
                 : util::EstimatorSampleCount(params.eps, params.delta);
    case core::Scope::kForAll:
      return params.answer == core::Answer::kIndicator
                 ? util::ForAllIndicatorSampleCount(params.eps, params.delta,
                                                    d, params.k)
                 : util::ForAllEstimatorSampleCount(params.eps, params.delta,
                                                    d, params.k);
  }
  return 0;
}

util::BitVector SubsampleSketch::Build(const core::Database& db,
                                       const core::SketchParams& params,
                                       util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t s = SampleCount(params, db.num_columns());
  util::BitWriter w;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t row = rng.UniformInt(db.num_rows());
    w.WriteBits(db.Row(row));
  }
  return w.Finish();
}

core::Database SubsampleSketch::DecodeSample(const util::BitVector& summary,
                                             std::size_t d) {
  IFSKETCH_CHECK_GT(d, 0u);
  return ReleaseDbSketch::Decode(summary, d, summary.size() / d);
}

std::size_t SubsampleSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d, const core::SketchParams& params) const {
  return SampleCount(params, d) * d;
}

util::BitVector SubsampleWithoutReplacementSketch::Build(
    const core::Database& db, const core::SketchParams& params,
    util::Rng& rng) const {
  IFSKETCH_CHECK_GT(db.num_rows(), 0u);
  const std::size_t s = SampleCount(params, db.num_columns());
  if (s > db.num_rows()) {
    // Not enough distinct rows: with-replacement is the only option that
    // keeps the summary format (s rows).
    return SubsampleSketch::Build(db, params, rng);
  }
  util::BitWriter w;
  for (std::size_t row : rng.SampleWithoutReplacement(db.num_rows(), s)) {
    w.WriteBits(db.Row(row));
  }
  return w.Finish();
}

}  // namespace ifsketch::sketch
