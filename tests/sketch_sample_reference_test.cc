// Every sample-based sketch against a row-scan reference of its
// documented formula.
//
// The loaders answer through column stores, prefix-shared ANDs, row
// groups and per-row coefficients; none of that may change a single
// answer bit. This suite decodes each summary here, one bit at a time
// with nothing but BitVector::Get, and evaluates the formula each
// algorithm documents by testing containment row by row in the order
// the algorithm sums. Every load path (the built engine, a mapped v2
// file, a copied v2 file), the scalar and batched entry points, the
// empty itemset, 1-item itemsets, Apriori sibling runs and batches below
// and above the thread pool grain must reproduce it exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "data/generators.h"
#include "engine.h"
#include "sketch/median_boost.h"
#include "sketch/stratified_sample.h"
#include "sketch/streaming.h"
#include "sketch/subsample.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch {
namespace {

constexpr std::size_t kRows = 1500;
constexpr std::size_t kCols = 20;

core::Database TestDb() {
  util::Rng rng(31337);
  return data::PowerLawBaskets(kRows, kCols, 1.0, 0.5, 4, 3, 0.2, rng);
}

core::SketchParams Params(core::Answer answer) {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = answer;
  return p;
}

// ------------------------------------------------ bit-at-a-time decoding

std::uint64_t U64At(const util::BitVector& bits, std::size_t at,
                    std::size_t width = 64) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    if (bits.Get(at + i)) value |= std::uint64_t{1} << i;
  }
  return value;
}

util::BitVector RowAt(const util::BitVector& bits, std::size_t at,
                      std::size_t d) {
  util::BitVector row(d);
  for (std::size_t j = 0; j < d; ++j) row.Set(j, bits.Get(at + j));
  return row;
}

std::size_t Support(const core::Itemset& t,
                    const std::vector<util::BitVector>& rows) {
  std::size_t count = 0;
  for (const util::BitVector& row : rows) count += t.ContainedIn(row) ? 1 : 0;
  return count;
}

double Clamp01(double x) { return x < 0.0 ? 0.0 : (x > 1.0 ? 1.0 : x); }

/// f = (1/s) * sum over rows containing T, ascending, of coefficient_i,
/// clamped -- the Horvitz-Thompson shape of both importance samplers.
double WeightedRowSum(const core::Itemset& t,
                      const std::vector<util::BitVector>& rows,
                      const std::vector<double>& coefficients) {
  if (rows.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (t.ContainedIn(rows[i])) acc += coefficients[i];
  }
  return Clamp01(acc / static_cast<double>(rows.size()));
}

using Reference = std::function<double(const core::Itemset&)>;

/// RELEASE-DB, SUBSAMPLE, SUBSAMPLE-WOR, STREAM-SUBSAMPLE: the summary is
/// rows of d bits; f = rows containing T / rows.
Reference UniformReference(const util::BitVector& summary, std::size_t d) {
  std::vector<util::BitVector> rows;
  for (std::size_t at = 0; at < summary.size(); at += d) {
    rows.push_back(RowAt(summary, at, d));
  }
  return [rows](const core::Itemset& t) {
    if (rows.empty()) return 0.0;
    return static_cast<double>(Support(t, rows)) /
           static_cast<double>(rows.size());
  };
}

/// IMPORTANCE-SAMPLE: mean weight as 64-bit fixed point (2^-20), then s
/// rows; coefficient_i = mean_w / (popcount(row_i) + 1).
Reference ImportanceReference(const util::BitVector& summary,
                              std::size_t d) {
  const double mean_weight = static_cast<double>(U64At(summary, 0)) /
                             static_cast<double>(1 << 20);
  std::vector<util::BitVector> rows;
  std::vector<double> coefficients;
  for (std::size_t at = 64; at < summary.size(); at += d) {
    rows.push_back(RowAt(summary, at, d));
    coefficients.push_back(mean_weight /
                           static_cast<double>(rows.back().Count() + 1));
  }
  return [rows, coefficients](const core::Itemset& t) {
    return WeightedRowSum(t, rows, coefficients);
  };
}

/// MEDIAN-BOOST(SUBSAMPLE): m copies of s rows; each copy answers its
/// sample frequency, the sketch the median (m is odd).
Reference MedianBoostReference(const util::BitVector& summary, std::size_t d,
                               std::size_t copies) {
  const std::size_t per_copy = summary.size() / d / copies;
  std::vector<std::vector<util::BitVector>> samples(copies);
  for (std::size_t c = 0; c < copies; ++c) {
    for (std::size_t i = 0; i < per_copy; ++i) {
      samples[c].push_back(RowAt(summary, (c * per_copy + i) * d, d));
    }
  }
  return [samples](const core::Itemset& t) {
    std::vector<double> values;
    for (const auto& rows : samples) {
      values.push_back(rows.empty() ? 0.0
                                    : static_cast<double>(Support(t, rows)) /
                                          static_cast<double>(rows.size()));
    }
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
  };
}

/// STREAM-STRATIFIED: per stratum a 64-bit row count N_h and c slot
/// rows; f = sum_h N_h * support_h / (sum_h N_h * c), strata ascending.
Reference StreamStratifiedReference(const util::BitVector& summary,
                                    std::size_t d, std::size_t slots) {
  std::vector<std::uint64_t> counts;
  std::vector<std::vector<util::BitVector>> strata;
  std::size_t at = 0;
  for (std::size_t h = 0; h < sketch::StreamStratifiedSketch::kStrata; ++h) {
    counts.push_back(U64At(summary, at));
    at += 64;
    strata.emplace_back();
    for (std::size_t i = 0; i < slots; ++i, at += d) {
      strata.back().push_back(RowAt(summary, at, d));
    }
  }
  return [counts, strata, slots](const core::Itemset& t) {
    double total = 0.0;
    for (std::uint64_t c : counts) total += static_cast<double>(c);
    if (total == 0.0) return 0.0;
    double acc = 0.0;
    for (std::size_t h = 0; h < counts.size(); ++h) {
      if (counts[h] == 0) continue;
      acc += static_cast<double>(counts[h]) *
             static_cast<double>(Support(t, strata[h]));
    }
    return acc / (total * static_cast<double>(slots));
  };
}

/// STREAM-IMPORTANCE: total weight W (raw double), then per slot its
/// weight w_i (raw double) and row; coefficient_i = W / (n * w_i).
Reference StreamImportanceReference(const util::BitVector& summary,
                                    std::size_t d, std::size_t n) {
  const double total = std::bit_cast<double>(U64At(summary, 0));
  std::vector<util::BitVector> rows;
  std::vector<double> coefficients;
  for (std::size_t at = 64; at < summary.size(); at += 64 + d) {
    const double weight = std::bit_cast<double>(U64At(summary, at));
    coefficients.push_back(
        n > 0 ? total / (static_cast<double>(n) * weight) : 0.0);
    rows.push_back(RowAt(summary, at + 64, d));
  }
  return [rows, coefficients](const core::Itemset& t) {
    return WeightedRowSum(t, rows, coefficients);
  };
}

/// StratifiedSampler: u16 stratum count, then per stratum s_h (u32), its
/// weight (32-bit quantized) and s_h rows; f = sum_h weight_h * f_h.
Reference StratifiedSamplerReference(const util::BitVector& summary,
                                     std::size_t d) {
  const std::size_t strata = U64At(summary, 0, 16);
  std::size_t at = 16;
  std::vector<double> weights;
  std::vector<std::vector<util::BitVector>> samples(strata);
  for (std::size_t h = 0; h < strata; ++h) {
    const std::size_t s_h = U64At(summary, at, 32);
    weights.push_back(static_cast<double>(U64At(summary, at + 32, 32)) /
                      static_cast<double>(0xffffffffu));
    at += 64;
    for (std::size_t i = 0; i < s_h; ++i, at += d) {
      samples[h].push_back(RowAt(summary, at, d));
    }
  }
  return [weights, samples](const core::Itemset& t) {
    double acc = 0.0;
    for (std::size_t h = 0; h < samples.size(); ++h) {
      if (samples[h].empty()) continue;
      acc += weights[h] * (static_cast<double>(Support(t, samples[h])) /
                           static_cast<double>(samples[h].size()));
    }
    return Clamp01(acc);
  };
}

Reference ReferenceFor(const std::string& algorithm,
                       const sketch::SketchFile& file) {
  const std::size_t d = file.d;
  if (algorithm == "IMPORTANCE-SAMPLE") {
    return ImportanceReference(file.summary, d);
  }
  if (algorithm == "MEDIAN-BOOST(SUBSAMPLE)") {
    sketch::MedianBoostSketch boost(std::make_shared<sketch::SubsampleSketch>());
    return MedianBoostReference(file.summary, d,
                                boost.CopyCount(file.params, d));
  }
  if (algorithm == "STREAM-STRATIFIED") {
    return StreamStratifiedReference(
        file.summary, d,
        sketch::StreamStratifiedSketch::SlotsPerStratum(file.params, d));
  }
  if (algorithm == "STREAM-IMPORTANCE") {
    return StreamImportanceReference(file.summary, d, file.n);
  }
  return UniformReference(file.summary, d);
}

// ---------------------------------------------------------------- queries

/// The empty itemset, every 1-item itemset, random 2- and 4-itemsets, and
/// Apriori sibling runs of 3-itemsets (adjacent queries sharing all but
/// their last attribute, the uniform shape's prefix-sharing path).
std::vector<core::Itemset> QueryMix() {
  std::vector<core::Itemset> queries;
  queries.emplace_back(kCols);
  for (std::size_t a = 0; a < kCols; ++a) {
    queries.emplace_back(kCols, std::vector<std::size_t>{a});
  }
  util::Rng rng(2718);
  for (std::size_t size : {2u, 4u}) {
    for (int i = 0; i < 40; ++i) {
      core::Itemset t(kCols);
      while (t.size() < size) t.Add(rng.UniformInt(kCols));
      queries.push_back(std::move(t));
    }
  }
  for (std::size_t a = 0; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 8; ++b) {
      for (std::size_t c = b + 1; c < kCols; c += 3) {
        queries.emplace_back(kCols, std::vector<std::size_t>{a, b, c});
      }
    }
  }
  return queries;
}

void ExpectSameBits(double expected, double actual, const std::string& where) {
  ASSERT_EQ(std::bit_cast<std::uint64_t>(expected),
            std::bit_cast<std::uint64_t>(actual))
      << where << ": expected " << expected << ", got " << actual;
}

/// Batches below the pool grain (answered inline) and well above it
/// (split into chunks across the pool's threads).
constexpr std::size_t kBatchSizes[] = {1, core::ColumnStore::kQueryGrain - 1,
                                       16 * core::ColumnStore::kQueryGrain + 5};

std::vector<core::Itemset> Batch(const std::vector<core::Itemset>& mix,
                                 std::size_t size, std::size_t offset) {
  std::vector<core::Itemset> batch;
  for (std::size_t i = 0; i < size; ++i) {
    batch.push_back(mix[(offset + i) % mix.size()]);
  }
  return batch;
}

void CheckEstimator(const core::FrequencyEstimator& estimator,
                    const Reference& reference, const std::string& where) {
  const auto mix = QueryMix();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    ExpectSameBits(reference(mix[i]), estimator.EstimateFrequency(mix[i]),
                   where + " scalar " + mix[i].ToString());
  }
  for (std::size_t size : kBatchSizes) {
    const auto batch = Batch(mix, size, size);
    std::vector<double> answers;
    estimator.EstimateMany(batch, &answers);
    ASSERT_EQ(answers.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ExpectSameBits(reference(batch[i]), answers[i],
                     where + " batch " + std::to_string(size) + " " +
                         batch[i].ToString());
    }
  }
}

void CheckIndicator(const core::FrequencyIndicator& indicator,
                    const Reference& reference, double eps,
                    const std::string& where) {
  const auto mix = QueryMix();
  for (const core::Itemset& t : mix) {
    ASSERT_EQ(reference(t) >= 0.75 * eps, indicator.IsFrequent(t))
        << where << " scalar " << t.ToString();
  }
  for (std::size_t size : kBatchSizes) {
    const auto batch = Batch(mix, size, 3 * size);
    std::vector<bool> answers;
    indicator.AreFrequent(batch, &answers);
    ASSERT_EQ(answers.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(reference(batch[i]) >= 0.75 * eps, answers[i])
          << where << " batch " << size << " " << batch[i].ToString();
    }
  }
}

// ------------------------------------------------------------------ suite

/// Engine's public query entry points seen through the view interfaces,
/// so engines and the standalone sampler share the checks above.
class EngineEstimator : public core::FrequencyEstimator {
 public:
  explicit EngineEstimator(const Engine& engine) : engine_(engine) {}
  double EstimateFrequency(const core::Itemset& t) const override {
    return engine_.estimate(t);
  }
  void EstimateMany(const core::QueryBatch& batch,
                    std::vector<double>* answers) const override {
    engine_.estimate_many(batch, answers);
  }

 private:
  const Engine& engine_;
};

class EngineIndicator : public core::FrequencyIndicator {
 public:
  explicit EngineIndicator(const Engine& engine) : engine_(engine) {}
  bool IsFrequent(const core::Itemset& t) const override {
    return engine_.is_frequent(t);
  }
  void AreFrequent(const core::QueryBatch& batch,
                   std::vector<bool>* answers) const override {
    engine_.are_frequent(batch, answers);
  }

 private:
  const Engine& engine_;
};

class SampleReferenceTest : public testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { util::ThreadPool::SetDefaultThreadCount(4); }
  void TearDown() override { util::ThreadPool::SetDefaultThreadCount(0); }
};

/// The built engine, the same sketch published through FromFile, and
/// the same sketch saved and reopened: mapped from a v2 file and decoded
/// from a v1 file (the algorithm's decoding loaders).
std::vector<std::pair<std::string, Engine>> AllLoads(const Engine& built,
                                                     const std::string& stem) {
  std::vector<std::pair<std::string, Engine>> loads;
  loads.emplace_back("built", built);
  auto published = Engine::FromFile(built.file());
  EXPECT_TRUE(published.has_value());
  if (published.has_value()) {
    loads.emplace_back("published", *std::move(published));
  }
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  const std::string v1_path = testing::TempDir() + "/" + stem + "_v1.ifsk";
  EXPECT_TRUE(built.Save(path));
  EXPECT_TRUE(sketch::SaveSketchFile(v1_path, built.file(),
                                     sketch::arena::kVersionLegacy));
  for (const auto& [label, file] :
       {std::pair{"mapped", path}, std::pair{"decoded", v1_path}}) {
    std::string error;
    auto opened = Engine::Open(file, &error);
    EXPECT_TRUE(opened.has_value()) << error;
    if (opened.has_value()) loads.emplace_back(label, *std::move(opened));
  }
  return loads;
}

std::string Stem(const std::string& algorithm, const char* flavor) {
  std::string stem = "sample_reference_";
  for (char c : algorithm) {
    stem.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return stem + flavor;
}

TEST_P(SampleReferenceTest, EstimatesMatchTheDocumentedFormula) {
  const core::Database db = TestDb();
  util::Rng rng(99);
  const auto built =
      Engine::Build(db, GetParam(), Params(core::Answer::kEstimator), rng);
  ASSERT_TRUE(built.has_value());
  const Reference reference = ReferenceFor(GetParam(), built->file());
  for (const auto& [label, engine] : AllLoads(*built, Stem(GetParam(), "est"))) {
    CheckEstimator(EngineEstimator(engine), reference,
                   std::string(GetParam()) + " " + label);
    CheckIndicator(EngineIndicator(engine), reference, engine.params().eps,
                   std::string(GetParam()) + " " + label);
  }
}

TEST_P(SampleReferenceTest, IndicatorFlavorMatchesTheDocumentedFormula) {
  const core::Database db = TestDb();
  util::Rng rng(100);
  const auto built =
      Engine::Build(db, GetParam(), Params(core::Answer::kIndicator), rng);
  ASSERT_TRUE(built.has_value());
  const Reference reference = ReferenceFor(GetParam(), built->file());
  for (const auto& [label, engine] : AllLoads(*built, Stem(GetParam(), "ind"))) {
    CheckIndicator(EngineIndicator(engine), reference, engine.params().eps,
                   std::string(GetParam()) + " " + label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampleAlgorithms, SampleReferenceTest,
    testing::Values("RELEASE-DB", "SUBSAMPLE", "SUBSAMPLE-WOR",
                    "IMPORTANCE-SAMPLE", "MEDIAN-BOOST(SUBSAMPLE)",
                    "STREAM-SUBSAMPLE", "STREAM-STRATIFIED",
                    "STREAM-IMPORTANCE"),
    [](const auto& info) {
      std::string safe = info.param;
      for (char& c : safe) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return safe;
    });

// The standalone StratifiedSampler is not registered (its layout depends
// on stratum occupancy), so it is checked through its own loader.
TEST(StratifiedSamplerReferenceTest, MatchesTheDocumentedFormula) {
  util::ThreadPool::SetDefaultThreadCount(4);
  const core::Database db = TestDb();
  for (std::size_t strata : {1u, 3u, 8u}) {
    util::Rng rng(strata);
    const sketch::StratifiedSampler sampler(strata);
    const util::BitVector summary = sampler.Build(db, 400, rng);
    const auto estimator = sampler.Load(summary, kCols);
    CheckEstimator(*estimator, StratifiedSamplerReference(summary, kCols),
                   "StratifiedSampler(" + std::to_string(strata) + ")");
  }
  util::ThreadPool::SetDefaultThreadCount(0);
}

}  // namespace
}  // namespace ifsketch
