#include "sketch/median_boost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/validate.h"
#include "util/bitio.h"
#include "data/generators.h"
#include "sketch/subsample.h"

namespace ifsketch::sketch {
namespace {

class MedianBoostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(99);
    db_ = data::UniformRandom(300, 8, 0.4, rng);
    params_.k = 2;
    params_.eps = 0.1;
    params_.delta = 0.05;
    params_.scope = core::Scope::kForAll;
    params_.answer = core::Answer::kEstimator;
  }
  core::Database db_;
  core::SketchParams params_;
  std::shared_ptr<core::SketchAlgorithm> inner_ =
      std::make_shared<SubsampleSketch>();
};

TEST_F(MedianBoostTest, CopyCountIsOddAndScales) {
  MedianBoostSketch boost(inner_);
  const std::size_t m = boost.CopyCount(params_, 8);
  EXPECT_EQ(m % 2, 1u);
  EXPECT_GE(m, 1u);
  // More attributes -> more itemsets -> more copies.
  EXPECT_GE(boost.CopyCount(params_, 64), m);
}

TEST_F(MedianBoostTest, SummaryIsCopiesTimesInner) {
  MedianBoostSketch boost(inner_, 0.2);  // scaled down to keep tests fast
  util::Rng rng(7);
  const auto summary = boost.Build(db_, params_, rng);
  EXPECT_EQ(summary.size(), boost.PredictedSizeBits(300, 8, params_));
  EXPECT_EQ(summary.size() % boost.CopyCount(params_, 8), 0u);
}

TEST_F(MedianBoostTest, BoostedEstimatorValidForAll) {
  MedianBoostSketch boost(inner_, 0.2);
  util::Rng rng(8);
  int invalid = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    const auto summary = boost.Build(db_, params_, rng);
    const auto est = boost.LoadEstimator(summary, params_, 8, 300);
    if (!core::ValidateEstimatorExhaustive(db_, *est, 2, params_.eps)
             .valid()) {
      ++invalid;
    }
  }
  EXPECT_LE(invalid, 1);
}

TEST_F(MedianBoostTest, MedianRobustToMinorityOfBadCopies) {
  // A contrived inner algorithm: returns garbage with probability 0.3,
  // exact answers otherwise. The median over many copies is still exact.
  class FlakyInner : public core::SketchAlgorithm {
   public:
    std::string name() const override { return "FLAKY"; }
    util::BitVector Build(const core::Database& db,
                          const core::SketchParams&,
                          util::Rng& rng) const override {
      util::BitWriter w;
      const bool bad = rng.Bernoulli(0.3);
      w.WriteBit(bad);
      // Store the one frequency we will be asked about, or garbage.
      w.WriteQuantized(bad ? 1.0 : db.Frequency(core::Itemset(
                                       db.num_columns(), {0, 1})),
                       24);
      return w.Finish();
    }
    std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
        const util::BitVector& summary, const core::SketchParams&,
        std::size_t, std::size_t) const override {
      util::BitReader r(summary);
      r.ReadBit();
      const double f = r.ReadQuantized(24);
      class Fixed : public core::FrequencyEstimator {
       public:
        explicit Fixed(double f) : f_(f) {}
        double EstimateFrequency(const core::Itemset&) const override {
          return f_;
        }

       private:
        double f_;
      };
      return std::make_unique<Fixed>(f);
    }
    std::size_t PredictedSizeBits(std::size_t, std::size_t,
                                  const core::SketchParams&) const override {
      return 25;
    }
  };

  MedianBoostSketch boost(std::make_shared<FlakyInner>(), 0.3);
  util::Rng rng(9);
  const core::Itemset t(8, {0, 1});
  const double truth = db_.Frequency(t);
  int failures = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto summary = boost.Build(db_, params_, rng);
    const auto est = boost.LoadEstimator(summary, params_, 8, 300);
    if (std::fabs(est->EstimateFrequency(t) - truth) > 0.01) ++failures;
  }
  EXPECT_EQ(failures, 0);
}

// MEDIAN-BOOST over MEDIAN-BOOST: the payload is still rows, but each
// outer copy answers a median of its own copies, not a sample frequency,
// so the outer sketch must not report a row-major payload, and must
// answer the median of medians copy by copy.
TEST_F(MedianBoostTest, NestedBoostAnswersMedianOfMedians) {
  const auto inner = std::make_shared<MedianBoostSketch>(inner_, 0.05);
  MedianBoostSketch outer(inner, 0.05);
  util::Rng rng(10);
  const util::BitVector summary = outer.Build(db_, params_, rng);
  ASSERT_TRUE(inner->HasRowMajorPayload(params_));
  ASSERT_FALSE(outer.HasRowMajorPayload(params_));

  core::SketchParams inner_params = params_;
  inner_params.scope = core::Scope::kForEach;
  inner_params.delta = 0.25;
  const std::size_t m = outer.CopyCount(params_, 8);
  const std::size_t m_inner = inner->CopyCount(inner_params, 8);
  const std::size_t rows = summary.size() / 8 / m / m_inner;
  const auto median = [](std::vector<double> values) {
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
  const auto reference = [&](const core::Itemset& t) {
    std::vector<double> outer_values;
    for (std::size_t c = 0; c < m; ++c) {
      std::vector<double> inner_values;
      for (std::size_t g = 0; g < m_inner; ++g) {
        std::size_t hits = 0;
        for (std::size_t r = 0; r < rows; ++r) {
          const std::size_t row = (c * m_inner + g) * rows + r;
          bool contained = true;
          for (std::size_t a : t.Attributes()) {
            contained = contained && summary.Get(row * 8 + a);
          }
          hits += contained ? 1 : 0;
        }
        inner_values.push_back(static_cast<double>(hits) /
                               static_cast<double>(rows));
      }
      outer_values.push_back(median(inner_values));
    }
    return median(outer_values);
  };

  const auto decoded = outer.LoadEstimator(summary, params_, 8, 300);
  std::vector<core::Itemset> queries = {core::Itemset(8)};
  for (std::size_t a = 0; a < 8; ++a) {
    queries.emplace_back(8, std::vector<std::size_t>{a, (a + 3) % 8});
  }
  std::vector<double> batched;
  decoded->EstimateMany(queries, &batched);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double expected = reference(queries[i]);
    EXPECT_EQ(decoded->EstimateFrequency(queries[i]), expected) << i;
    EXPECT_EQ(batched[i], expected) << i;
  }
}

TEST_F(MedianBoostTest, NameMentionsInner) {
  MedianBoostSketch boost(inner_);
  EXPECT_EQ(boost.name(), "MEDIAN-BOOST(SUBSAMPLE)");
}

}  // namespace
}  // namespace ifsketch::sketch
