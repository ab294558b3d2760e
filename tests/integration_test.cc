// Cross-module integration tests: full pipelines from the paper, end to
// end, with every substrate involved.

#include <gtest/gtest.h>

#include <cmath>

#include "core/validate.h"
#include "data/generators.h"
#include "ecc/concatenated.h"
#include "lowerbound/index_protocol.h"
#include "lowerbound/thm13.h"
#include "lowerbound/thm15.h"
#include "mining/apriori.h"
#include "sketch/envelope.h"
#include "sketch/median_boost.h"
#include "sketch/streaming.h"
#include "sketch/subsample.h"
#include "util/random.h"

namespace ifsketch {
namespace {

// Pipeline 1: stream -> reservoir -> summary -> mining, checked against
// batch SUBSAMPLE -> mining and exact mining.
TEST(IntegrationTest, StreamingSketchMiningPipeline) {
  util::Rng rng(100);
  const std::size_t d = 16;
  const core::Database db = data::PlantedItemsets(
      20000, d, {{{2, 7}, 0.35}, {{4, 9, 12}, 0.2}}, 0.06, rng);

  core::SketchParams p;
  p.k = 3;
  p.eps = 0.02;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;

  const auto builder = sketch::StreamSubsampleSketch().NewBuilder(d, p, rng);
  for (std::size_t i = 0; i < db.num_rows(); ++i) builder->Observe(db.Row(i));

  sketch::SubsampleSketch algo;
  const auto streamed = builder->Summary();
  const auto est = algo.LoadEstimator(streamed, p, d, db.num_rows());

  mining::AprioriOptions opt;
  opt.min_frequency = 0.1;
  opt.max_size = 3;
  const auto exact = mining::MineDatabase(db, opt);
  const auto from_stream = mining::MineWithEstimator(*est, d, opt);
  const auto q = mining::CompareMinedSets(exact, from_stream);
  EXPECT_GT(q.Recall(), 0.9);
  EXPECT_GT(q.Precision(), 0.9);
}

// Pipeline 2: the full Theorem 15 encoding argument with a real sketch:
// message -> ECC -> payload -> database -> SUBSAMPLE summary ->
// indicator -> consistency decode -> ECC decode -> message.
TEST(IntegrationTest, Thm15FullEncodingArgumentThroughRealSketch) {
  util::Rng rng(101);
  const lowerbound::Thm15Instance inst(256, 3);
  const ecc::ConcatenatedCode code = ecc::ConcatenatedCode::Small();
  const std::size_t capacity = code.CapacityForBudget(inst.PayloadBits());
  const util::BitVector message = rng.RandomBits(capacity);
  const util::BitVector codeword = code.Encode(message);
  util::BitVector payload(inst.PayloadBits());
  for (std::size_t i = 0; i < codeword.size(); ++i) {
    payload.Set(i, codeword.Get(i));
  }
  const core::Database db = inst.BuildDatabase(payload);

  core::SketchParams p;
  p.k = 3;
  p.eps = lowerbound::Thm15Instance::kEps;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kIndicator;
  sketch::SubsampleSketch algo;
  const auto summary = algo.Build(db, p, rng);
  const auto ind =
      algo.LoadIndicator(summary, p, db.num_columns(), db.num_rows());

  lowerbound::ConsistencyDecoderOptions options;
  const util::BitVector recovered =
      inst.ReconstructPayload(*ind, options, rng);
  const auto decoded =
      code.Decode(recovered.Slice(0, codeword.size()), capacity);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, message);
}

// Pipeline 3: the Theorem 14 reduction through the median-boosted
// estimator (estimator -> indicator adapter -> INDEX game).
TEST(IntegrationTest, IndexGameThroughBoostedEstimator) {
  util::Rng rng(102);
  auto boosted = std::make_shared<sketch::MedianBoostSketch>(
      std::make_shared<sketch::SubsampleSketch>(), 0.1);
  lowerbound::SketchIndexProtocol protocol(boosted, 8, 2, 4);
  const comm::IndexGameResult r = comm::PlayIndexGame(protocol, 40, rng);
  EXPECT_GT(r.SuccessRate(), 2.0 / 3.0);
}

// Pipeline 4: envelope-selected algorithm is always valid on its shape.
TEST(IntegrationTest, EnvelopeSelectionProducesValidSketches) {
  util::Rng rng(103);
  struct Shape {
    std::size_t n, d;
    double eps;
  };
  for (const auto& shape :
       std::vector<Shape>{{30, 18, 0.05}, {5000, 10, 0.2}, {800, 14, 0.1}}) {
    const core::Database db =
        data::UniformRandom(shape.n, shape.d, 0.45, rng);
    core::SketchParams p;
    p.k = 2;
    p.eps = shape.eps;
    p.delta = 0.05;
    p.scope = core::Scope::kForAll;
    p.answer = core::Answer::kEstimator;
    const auto algo = sketch::BestNaiveAlgorithm(shape.n, shape.d, p);
    const auto summary = algo->Build(db, p, rng);
    EXPECT_EQ(summary.size(),
              algo->PredictedSizeBits(shape.n, shape.d, p));
    const auto est = algo->LoadEstimator(summary, p, shape.d, shape.n);
    const auto report =
        core::ValidateEstimatorExhaustive(db, *est, 2, p.eps);
    // Randomized algorithms may fail with probability delta; retry once.
    if (!report.valid()) {
      const auto summary2 = algo->Build(db, p, rng);
      const auto est2 = algo->LoadEstimator(summary2, p, shape.d, shape.n);
      EXPECT_TRUE(
          core::ValidateEstimatorExhaustive(db, *est2, 2, p.eps).valid())
          << algo->name() << " n=" << shape.n;
    }
  }
}

// Pipeline 5: Theorem 13 duplication to large n: the bound's statement
// "for n >= 1/eps" realized with n = 40/eps.
TEST(IntegrationTest, Thm13WithLargeN) {
  util::Rng rng(104);
  const lowerbound::Thm13Instance inst(16, 2, 8);
  const util::BitVector payload = rng.RandomBits(inst.PayloadBits());
  const core::Database db = inst.BuildDatabase(payload, 40);  // n = 320
  EXPECT_EQ(db.num_rows(), 320u);

  core::SketchParams p;
  p.k = 2;
  p.eps = inst.SketchEps();
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kIndicator;
  sketch::SubsampleSketch algo;
  const auto summary = algo.Build(db, p, rng);
  const auto ind = algo.LoadIndicator(summary, p, 16, 320);
  const util::BitVector rec = inst.ReconstructPayload(*ind);
  EXPECT_LE(rec.HammingDistance(payload), inst.PayloadBits() / 20);
}

// Pipeline 6: a census release serves marginal queries through a sketch
// whose size is a vanishing fraction of the data, with bounded error.
TEST(IntegrationTest, CensusMarginalRelease) {
  util::Rng rng(105);
  const core::Database db =
      data::CensusLike(50000, {{4, {}}, {3, {0.6, 0.3, 0.1}}, {2, {}}}, rng);
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.02;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  sketch::SubsampleSketch algo;
  const auto summary = algo.Build(db, p, rng);
  EXPECT_LT(summary.size(), db.PayloadBits() / 4);
  const auto est =
      algo.LoadEstimator(summary, p, db.num_columns(), db.num_rows());
  // Every cell of the (attr0 x attr1 x attr2) marginal.
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      for (std::size_t c = 0; c < 2; ++c) {
        const core::Itemset cell(db.num_columns(), {a, 4 + b, 7 + c});
        EXPECT_NEAR(est->EstimateFrequency(cell), db.Frequency(cell),
                    p.eps);
      }
    }
  }
}

}  // namespace
}  // namespace ifsketch
