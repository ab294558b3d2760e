#include "sketch/release_db.h"

#include "util/bitio.h"
#include "util/check.h"

namespace ifsketch::sketch {

util::BitVector ReleaseDbSketch::Build(const core::Database& db,
                                       const core::SketchParams& /*params*/,
                                       util::Rng& /*rng*/) const {
  util::BitWriter w;
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    w.WriteBits(db.Row(i));
  }
  return w.Finish();
}

std::unique_ptr<core::FrequencyEstimator>
ReleaseDbSketch::LoadEstimatorFromColumns(core::ColumnStore columns,
                                          const util::BitVector& summary,
                                          const core::SketchParams& params,
                                          std::size_t d, std::size_t n) const {
  IFSKETCH_CHECK_EQ(summary.size(), n * d);  // every row, verbatim
  return RowMajorSketch::LoadEstimatorFromColumns(std::move(columns), summary,
                                                  params, d, n);
}

std::size_t ReleaseDbSketch::PredictedSizeBits(
    std::size_t n, std::size_t d,
    const core::SketchParams& /*params*/) const {
  return n * d;
}

core::Database ReleaseDbSketch::Decode(const util::BitVector& summary,
                                       std::size_t d, std::size_t n) {
  IFSKETCH_CHECK_EQ(summary.size(), n * d);
  util::BitReader r(summary);
  std::vector<util::BitVector> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rows.push_back(r.ReadBits(d));
  return core::Database::FromRows(std::move(rows));
}

}  // namespace ifsketch::sketch
