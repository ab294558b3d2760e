// STREAM-SUBSAMPLE's builder: s independent size-1 reservoirs whose
// summary is a SUBSAMPLE summary.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "data/generators.h"
#include "sketch/streaming.h"
#include "sketch/subsample.h"

namespace ifsketch::sketch {
namespace {

core::SketchParams EstParams() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

std::unique_ptr<StreamingBuilder> NewReservoir(
    std::size_t d, const core::SketchParams& params, util::Rng& rng) {
  return StreamSubsampleSketch().NewBuilder(d, params, rng);
}

TEST(ReservoirTest, SlotCountMatchesSubsample) {
  util::Rng rng(1);
  const auto builder = NewReservoir(12, EstParams(), rng);
  builder->Observe(util::BitVector(12));
  EXPECT_EQ(builder->Summary().size(),
            SubsampleSketch::SampleCount(EstParams(), 12) * 12);
}

TEST(ReservoirTest, SummaryCompatibleWithSubsampleLoader) {
  util::Rng rng(2);
  const core::Database db = data::UniformRandom(300, 12, 0.4, rng);
  const auto builder = NewReservoir(12, EstParams(), rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) builder->Observe(db.Row(i));
  EXPECT_EQ(builder->rows_seen(), 300u);
  const auto summary = builder->Summary();
  SubsampleSketch algo;
  const auto est = algo.LoadEstimator(summary, EstParams(), 12, 300);
  // Smoke check: estimate is a frequency.
  const double f = est->EstimateFrequency(core::Itemset(12, {0}));
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
}

TEST(ReservoirTest, SingleRowStreamAlwaysSampled) {
  util::Rng rng(3);
  const auto builder = NewReservoir(6, EstParams(), rng);
  util::BitVector row(6);
  row.Set(2, true);
  builder->Observe(row);
  const core::Database sample =
      SubsampleSketch::DecodeSample(builder->Summary(), 6);
  for (std::size_t i = 0; i < sample.num_rows(); ++i) {
    EXPECT_EQ(sample.Row(i), row);
  }
}

TEST(ReservoirTest, SlotsAreUniformOverStream) {
  // Stream of 4 distinct rows, equal counts: each slot should hold each
  // row with probability ~1/4.
  util::Rng rng(4);
  core::SketchParams p = EstParams();
  p.eps = 0.05;  // more slots for tighter statistics
  std::vector<util::BitVector> distinct;
  for (int r = 0; r < 4; ++r) {
    util::BitVector row(4);
    row.Set(r, true);
    distinct.push_back(row);
  }
  int counts[4] = {};
  int total = 0;
  for (int rep = 0; rep < 40; ++rep) {
    const auto builder = NewReservoir(4, p, rng);
    for (int pass = 0; pass < 25; ++pass) {
      for (const auto& row : distinct) builder->Observe(row);
    }
    const core::Database sample =
        SubsampleSketch::DecodeSample(builder->Summary(), 4);
    for (std::size_t i = 0; i < sample.num_rows(); ++i) {
      for (int r = 0; r < 4; ++r) {
        if (sample.Row(i) == distinct[r]) {
          ++counts[r];
          ++total;
        }
      }
    }
  }
  for (int r = 0; r < 4; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / total, 0.25, 0.03) << r;
  }
}

TEST(ReservoirTest, StreamEstimateCloseToTrueFrequency) {
  util::Rng rng(5);
  const core::Database db =
      data::PlantedItemsets(2000, 10, {{{2, 6}, 0.35}}, 0.05, rng);
  core::SketchParams p = EstParams();
  p.eps = 0.05;
  const auto builder = NewReservoir(10, p, rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) builder->Observe(db.Row(i));
  SubsampleSketch algo;
  const auto est = algo.LoadEstimator(builder->Summary(), p, 10, 2000);
  const core::Itemset t(10, {2, 6});
  EXPECT_NEAR(est->EstimateFrequency(t), db.Frequency(t), 0.08);
}

}  // namespace
}  // namespace ifsketch::sketch
