#include "sketch/release_answers.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "core/column_store.h"
#include "core/query_batch.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/combinatorics.h"

namespace ifsketch::sketch {
namespace {

// RELEASE-ANSWERS requires materializing C(d,k) answers; refuse absurd
// shapes up front rather than allocating forever.
constexpr std::uint64_t kMaxStoredAnswers = std::uint64_t{1} << 28;

// Itemsets counted per SupportCounts batch while building: bounds the
// batch and count buffers however many answers the table holds.
constexpr std::uint64_t kBuildChunk = std::uint64_t{1} << 16;

std::uint64_t NumItemsets(std::size_t d, std::size_t k) {
  const std::uint64_t c = util::Binomial(d, k);
  IFSKETCH_CHECK_LT(c, kMaxStoredAnswers);
  return c;
}

/// The table slot of one batch query: its colex rank, checked to be a
/// size-k set inside the table like the scalar lookups below.
std::uint64_t RankOf(std::span<const std::uint32_t> ids, std::size_t k,
                     std::size_t d, std::size_t slots) {
  IFSKETCH_CHECK_EQ(ids.size(), k);
  const std::uint64_t rank = util::RankSubset(ids, d);
  IFSKETCH_CHECK_LT(rank, slots);
  return rank;
}

/// Looks answers up by the queried itemset's colex rank. Only size-k
/// queries exist in the table; an off-k itemset's rank would alias into
/// some other itemset's slot and return its answer, so the size is
/// checked loudly (callers gate on SupportsQuerySize).
class AnswerTableEstimator : public core::FrequencyEstimator {
 public:
  AnswerTableEstimator(std::vector<double> answers, std::size_t d,
                       std::size_t k)
      : answers_(std::move(answers)), d_(d), k_(k) {}

  double EstimateFrequency(const core::Itemset& t) const override {
    IFSKETCH_CHECK_EQ(t.size(), k_);
    const std::uint64_t rank = util::RankSubset(t.Attributes(), d_);
    IFSKETCH_CHECK_LT(rank, answers_.size());
    return answers_[rank];
  }

  /// One lookup per query, ranked straight from its ids: a few
  /// multiply-adds, too little work to fan out.
  using core::FrequencyEstimator::EstimateMany;
  void EstimateMany(const core::QueryBatch& batch,
                    std::vector<double>* answers) const override {
    answers->resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*answers)[i] = answers_[RankOf(batch[i], k_, d_, answers_.size())];
    }
  }

 private:
  std::vector<double> answers_;
  std::size_t d_;
  std::size_t k_;
};

class AnswerTableIndicator : public core::FrequencyIndicator {
 public:
  AnswerTableIndicator(util::BitVector bits, std::size_t d, std::size_t k)
      : bits_(std::move(bits)), d_(d), k_(k) {}

  bool IsFrequent(const core::Itemset& t) const override {
    IFSKETCH_CHECK_EQ(t.size(), k_);
    const std::uint64_t rank = util::RankSubset(t.Attributes(), d_);
    IFSKETCH_CHECK_LT(rank, bits_.size());
    return bits_.Get(rank);
  }

  /// One lookup per query, as AnswerTableEstimator::EstimateMany.
  using core::FrequencyIndicator::AreFrequent;
  void AreFrequent(const core::QueryBatch& batch,
                   std::vector<bool>* answers) const override {
    answers->resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*answers)[i] = bits_.Get(RankOf(batch[i], k_, d_, bits_.size()));
    }
  }

 private:
  util::BitVector bits_;
  std::size_t d_;
  std::size_t k_;
};

}  // namespace

int ReleaseAnswersSketch::FrequencyBits(double eps) {
  IFSKETCH_CHECK(eps > 0.0 && eps <= 1.0);
  const int bits =
      static_cast<int>(std::ceil(std::log2(1.0 / eps))) + 1;
  return bits < 1 ? 1 : (bits > 62 ? 62 : bits);
}

util::BitVector ReleaseAnswersSketch::Build(const core::Database& db,
                                            const core::SketchParams& params,
                                            util::Rng& /*rng*/) const {
  const std::size_t d = db.num_columns();
  const std::size_t k = params.k;
  const std::uint64_t count = NumItemsets(d, k);
  const core::ColumnStore store(db);
  const double n = static_cast<double>(db.num_rows());
  const int fbits = FrequencyBits(params.eps);
  // Colex enumeration order matches RankSubset, so lookups are direct.
  std::vector<std::size_t> attrs(k);
  std::iota(attrs.begin(), attrs.end(), std::size_t{0});
  util::BitWriter w;
  std::vector<std::size_t> supports;
  for (std::uint64_t done = 0; done < count;) {
    const auto chunk =
        static_cast<std::size_t>(std::min(count - done, kBuildChunk));
    core::QueryBatch batch(d);
    batch.Append(chunk, chunk * k, [&](std::uint32_t* dst) {
      for (std::size_t i = 0; i < k; ++i) {
        dst[i] = static_cast<std::uint32_t>(attrs[i]);
      }
      util::NextSubset(attrs, d);
      return k;
    });
    store.SupportCounts(batch, &supports);
    for (const std::size_t support : supports) {
      // Database::Frequency's arithmetic, bit for bit.
      const double f = n == 0.0 ? 0.0 : static_cast<double>(support) / n;
      if (params.answer == core::Answer::kIndicator) {
        // Store the exact decision bit: 1 iff f_T > eps/2 (any rule that
        // is 1 above eps and 0 below eps/2 is valid; exactness costs
        // nothing).
        w.WriteBit(f > params.eps / 2);
      } else {
        w.WriteQuantized(f, fbits);
      }
    }
    done += chunk;
  }
  return w.Finish();
}

std::unique_ptr<core::FrequencyEstimator> ReleaseAnswersSketch::LoadEstimator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t /*n*/) const {
  IFSKETCH_CHECK(params.answer == core::Answer::kEstimator);
  const std::uint64_t count = NumItemsets(d, params.k);
  const int fbits = FrequencyBits(params.eps);
  util::BitReader r(summary);
  std::vector<double> answers(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    answers[i] = r.ReadQuantized(fbits);
  }
  return std::make_unique<AnswerTableEstimator>(std::move(answers), d,
                                                params.k);
}

std::unique_ptr<core::FrequencyIndicator> ReleaseAnswersSketch::LoadIndicator(
    const util::BitVector& summary, const core::SketchParams& params,
    std::size_t d, std::size_t n) const {
  if (params.answer == core::Answer::kEstimator) {
    return SketchAlgorithm::LoadIndicator(summary, params, d, n);
  }
  const std::uint64_t count = NumItemsets(d, params.k);
  IFSKETCH_CHECK_EQ(summary.size(), count);
  return std::make_unique<AnswerTableIndicator>(summary, d, params.k);
}

std::size_t ReleaseAnswersSketch::PredictedSizeBits(
    std::size_t /*n*/, std::size_t d, const core::SketchParams& params) const {
  const std::uint64_t count = util::Binomial(d, params.k);
  if (params.answer == core::Answer::kIndicator) return count;
  return count * static_cast<std::uint64_t>(FrequencyBits(params.eps));
}

}  // namespace ifsketch::sketch
