// Parameterized property sweeps (TEST_P) over the library's invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/validate.h"
#include "data/generators.h"
#include "ecc/concatenated.h"
#include "lowerbound/thm13.h"
#include "lowerbound/thm15.h"
#include "sketch/release_answers.h"
#include "sketch/release_db.h"
#include "sketch/subsample.h"
#include "util/combinatorics.h"
#include "util/random.h"

namespace ifsketch {
namespace {

// ---------------------------------------------------------------------
// Property: for every algorithm and every (scope, answer) combination,
// Build() emits exactly PredictedSizeBits() bits and the loaded view is
// valid on a random database (retrying once for the randomized ones).

using AlgoParams =
    std::tuple<int /*algo*/, core::Scope, core::Answer, double /*eps*/>;

class SketchContractTest : public ::testing::TestWithParam<AlgoParams> {
 protected:
  static std::unique_ptr<core::SketchAlgorithm> MakeAlgo(int id) {
    switch (id) {
      case 0:
        return std::make_unique<sketch::ReleaseDbSketch>();
      case 1:
        return std::make_unique<sketch::ReleaseAnswersSketch>();
      default:
        return std::make_unique<sketch::SubsampleSketch>();
    }
  }
};

TEST_P(SketchContractTest, SizeAndValidity) {
  const auto [algo_id, scope, answer, eps] = GetParam();
  util::Rng rng(7000 + algo_id);
  const std::size_t n = 400, d = 9, k = 2;
  const core::Database db = data::UniformRandom(n, d, 0.4, rng);
  const auto algo = MakeAlgo(algo_id);
  core::SketchParams p;
  p.k = k;
  p.eps = eps;
  p.delta = 0.05;
  p.scope = scope;
  p.answer = answer;

  const auto summary = algo->Build(db, p, rng);
  EXPECT_EQ(summary.size(), algo->PredictedSizeBits(n, d, p))
      << algo->name();

  int failures = 0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto fresh = algo->Build(db, p, rng);
    bool ok;
    if (answer == core::Answer::kEstimator) {
      const auto est = algo->LoadEstimator(fresh, p, d, n);
      ok = core::ValidateEstimatorExhaustive(db, *est, k, eps).valid();
    } else {
      const auto ind = algo->LoadIndicator(fresh, p, d, n);
      ok = core::ValidateIndicatorExhaustive(db, *ind, k, eps).valid();
    }
    if (ok) break;
    ++failures;
  }
  EXPECT_LT(failures, 2) << algo->name() << " repeatedly invalid";
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllSemantics, SketchContractTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(core::Scope::kForAll,
                                         core::Scope::kForEach),
                       ::testing::Values(core::Answer::kIndicator,
                                         core::Answer::kEstimator),
                       ::testing::Values(0.1, 0.25)));

// ---------------------------------------------------------------------
// Property: the ECC corrects every error weight up to its radius on a
// sweep of message lengths (single and multi block).

class EccRadiusTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(EccRadiusTest, DecodesAtErrorRate) {
  const auto [message_bits, rate] = GetParam();
  util::Rng rng(8000 + message_bits);
  const ecc::ConcatenatedCode code = ecc::ConcatenatedCode::Small();
  for (int trial = 0; trial < 3; ++trial) {
    const util::BitVector msg = rng.RandomBits(message_bits);
    util::BitVector cw = code.Encode(msg);
    const auto flips =
        static_cast<std::size_t>(rate * static_cast<double>(cw.size()));
    for (std::size_t pos : rng.SampleWithoutReplacement(cw.size(), flips)) {
      cw.Flip(pos);
    }
    const auto decoded = code.Decode(cw, message_bits);
    ASSERT_TRUE(decoded.has_value())
        << "bits=" << message_bits << " rate=" << rate;
    EXPECT_EQ(*decoded, msg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RadiusSweep, EccRadiusTest,
    ::testing::Combine(::testing::Values(1, 100, 160, 320, 500),
                       ::testing::Values(0.0, 0.01, 0.02, 0.04)));

// ---------------------------------------------------------------------
// Property: Theorem 13 reconstruction through RELEASE-DB is exact for
// every regime-legal (d, k, R) combination.

class Thm13SweepTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(Thm13SweepTest, LosslessSketchDecodesPayload) {
  const auto [d, k, rows] = GetParam();
  util::Rng rng(9000 + d * 31 + k * 7 + rows);
  const lowerbound::Thm13Instance inst(d, k, rows);
  const util::BitVector payload = rng.RandomBits(inst.PayloadBits());
  const core::Database db = inst.BuildDatabase(payload);
  sketch::ReleaseDbSketch algo;
  core::SketchParams p;
  p.k = k;
  p.eps = inst.SketchEps();
  p.answer = core::Answer::kIndicator;
  const auto summary = algo.Build(db, p, rng);
  const auto ind = algo.LoadIndicator(summary, p, d, db.num_rows());
  EXPECT_EQ(inst.ReconstructPayload(*ind), payload);
}

/// The shapes of d in {8, 12, 16, 24}, k in {2, 3, 4} and R in
/// {2, 6, 15} inside the theorem's 1/eps <= C(d/2, k-1) regime.
std::vector<std::tuple<std::size_t, std::size_t, std::size_t>>
Thm13RegimeShapes() {
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> shapes;
  for (std::size_t d : {8, 12, 16, 24}) {
    for (std::size_t k : {2, 3, 4}) {
      for (std::size_t rows : {2, 6, 15}) {
        if (rows <= util::Binomial(d / 2, k - 1)) {
          shapes.emplace_back(d, k, rows);
        }
      }
    }
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(RegimeSweep, Thm13SweepTest,
                         ::testing::ValuesIn(Thm13RegimeShapes()));

// ---------------------------------------------------------------------
// Property: Theorem 15 constant-eps reconstruction is exact through an
// exact-threshold oracle for every shape in the small-v regime.

class Thm15SweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(Thm15SweepTest, ExactOracleDecodesPayload) {
  const auto [d, k] = GetParam();
  util::Rng rng(9500 + d * 13 + k);
  const lowerbound::Thm15Instance inst(d, k);
  ASSERT_LT(inst.v(), 50u);
  const util::BitVector payload = rng.RandomBits(inst.PayloadBits());
  const core::Database db = inst.BuildDatabase(payload);
  class Oracle : public core::FrequencyIndicator {
   public:
    Oracle(const core::Database* db, double eps) : db_(db), eps_(eps) {}
    bool IsFrequent(const core::Itemset& t) const override {
      return db_->Frequency(t) > eps_;
    }

   private:
    const core::Database* db_;
    double eps_;
  } oracle(&db, lowerbound::Thm15Instance::kEps);
  lowerbound::ConsistencyDecoderOptions options;
  EXPECT_EQ(inst.ReconstructPayload(oracle, options, rng), payload);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, Thm15SweepTest,
    ::testing::Combine(::testing::Values(8, 16, 32, 64, 128),
                       ::testing::Values(2, 3, 4)));

// ---------------------------------------------------------------------
// Property: subset rank/unrank is a bijection for larger shapes too
// (spot-checked by random ranks rather than exhaustion).

class RankSweepTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RankSweepTest, RandomRanksRoundTrip) {
  const auto [n, k] = GetParam();
  util::Rng rng(9900 + n + k);
  const std::uint64_t total = util::Binomial(n, k);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t rank =
        rng.UniformInt(total < util::kBinomialInf ? total : (1ull << 40));
    const auto subset = util::UnrankSubset(rank, n, k);
    EXPECT_EQ(util::RankSubset(subset, n), rank);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LargeShapes, RankSweepTest,
    ::testing::Combine(::testing::Values(32, 64, 100),
                       ::testing::Values(2, 5, 8)));

}  // namespace
}  // namespace ifsketch
