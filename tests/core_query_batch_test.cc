// core::QueryBatch, the flat form every batched query path reads: packing
// Itemsets and reading them back across word boundaries of d, set
// normalization on append, universe narrowing, and the two edge shapes
// the bit-identity suites reach only through the vector<Itemset>
// adapters -- an empty batch and the empty itemset inside a flat batch.

#include "core/query_batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/column_store.h"
#include "data/generators.h"
#include "engine.h"
#include "util/random.h"

namespace ifsketch::core {
namespace {

/// Appends `ids` as they are, unsorted or repeated, like the decoder.
void AddIds(QueryBatch* batch, const std::vector<std::uint32_t>& ids) {
  batch->Append(1, ids.size(), [&ids](std::uint32_t* dst) {
    std::copy(ids.begin(), ids.end(), dst);
    return ids.size();
  });
}

std::vector<std::uint32_t> Ids(const Itemset& t) {
  std::vector<std::uint32_t> ids;
  for (std::size_t a : t.Attributes()) {
    ids.push_back(static_cast<std::uint32_t>(a));
  }
  return ids;
}

TEST(QueryBatchTest, PacksItemsetsAndReadsThemBackAcrossWordBoundaries) {
  for (const std::size_t d : {1, 63, 64, 65, 130}) {
    util::Rng rng(d);
    std::vector<Itemset> ts;
    ts.emplace_back(d);                                  // empty
    ts.emplace_back(d, std::vector<std::size_t>{0});     // first id
    ts.emplace_back(d, std::vector<std::size_t>{d - 1});  // last id
    Itemset all(d);
    for (std::size_t a = 0; a < d; ++a) all.Add(a);
    ts.push_back(all);
    for (int i = 0; i < 40; ++i) {
      Itemset t(d);
      const std::size_t size =
          1 + rng.UniformInt(std::min<std::size_t>(d, 5));
      while (t.size() < size) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
      }
      ts.push_back(std::move(t));
    }

    const QueryBatch batch = QueryBatch::FromItemsets(ts);
    ASSERT_EQ(batch.universe(), d);
    ASSERT_EQ(batch.size(), ts.size());
    EXPECT_EQ(batch.bound(), d);
    std::size_t ids = 0;
    Itemset scratch(d);
    Itemset other_universe(d + 1);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const auto expected = Ids(ts[i]);
      const auto got = batch[i];
      EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expected)
          << "d=" << d << " query " << i;
      EXPECT_EQ(batch.query_size(i), ts[i].size());
      batch.CopyTo(i, &scratch);
      EXPECT_EQ(scratch, ts[i]) << "d=" << d << " query " << i;
      batch.CopyTo(i, &other_universe);  // re-sized to the batch's d
      EXPECT_EQ(other_universe, ts[i]) << "d=" << d << " query " << i;
      ids += expected.size();
    }
    EXPECT_EQ(batch.attribute_count(), ids);
  }
}

TEST(QueryBatchTest, AppendStoresEachQueryAsItsSet) {
  QueryBatch batch(10);
  AddIds(&batch, {5, 3, 5});
  AddIds(&batch, {});
  AddIds(&batch, {9, 9, 9});
  AddIds(&batch, {1, 2, 4});
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(std::vector<std::uint32_t>(batch[0].begin(), batch[0].end()),
            (std::vector<std::uint32_t>{3, 5}));
  EXPECT_EQ(batch.query_size(1), 0u);
  EXPECT_EQ(std::vector<std::uint32_t>(batch[2].begin(), batch[2].end()),
            (std::vector<std::uint32_t>{9}));
  EXPECT_EQ(batch.query_size(3), 3u);
  EXPECT_EQ(batch.attribute_count(), 6u);
  EXPECT_EQ(batch.bound(), 10u);
  EXPECT_DEATH(AddIds(&batch, {10}), "");
}

TEST(QueryBatchTest, SetUniverseNarrowsOnlyWhenEveryIdFits) {
  QueryBatch batch(QueryBatch::kAnyUniverse);
  AddIds(&batch, {2, 7});
  EXPECT_FALSE(batch.SetUniverse(7));
  EXPECT_EQ(batch.universe(), QueryBatch::kAnyUniverse);
  EXPECT_TRUE(batch.SetUniverse(8));
  EXPECT_EQ(batch.universe(), 8u);
  EXPECT_FALSE(batch.SetUniverse(QueryBatch::kAnyUniverse + 1));
}

SketchParams Params() {
  SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = Scope::kForEach;
  p.answer = Answer::kEstimator;
  return p;
}

// One column-kernel shape per algorithm: uniform, per row, per group,
// and the scalar fallback loop.
constexpr const char* kAlgorithms[] = {"SUBSAMPLE", "IMPORTANCE-SAMPLE",
                                       "MEDIAN-BOOST(SUBSAMPLE)",
                                       "RELEASE-DB"};

TEST(QueryBatchTest, EmptyBatchAnswersNothing) {
  util::Rng rng(3);
  const Database db = data::PowerLawBaskets(300, 9, 1.0, 0.5, 4, 3, 0.2, rng);
  const QueryBatch empty = QueryBatch::FromItemsets({});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.universe(), 0u);
  EXPECT_EQ(empty.bound(), 0u);
  std::vector<std::size_t> counts = {7};
  ColumnStore(db).SupportCounts(empty, &counts);
  EXPECT_TRUE(counts.empty());
  for (const char* algorithm : kAlgorithms) {
    const auto engine = Engine::Build(db, algorithm, Params(), rng);
    ASSERT_TRUE(engine.has_value()) << algorithm;
    std::vector<double> answers = {0.5};
    engine->estimate_many(empty, &answers);
    EXPECT_TRUE(answers.empty()) << algorithm;
    std::vector<bool> bits = {true};
    engine->are_frequent(QueryBatch(db.num_columns()), &bits);
    EXPECT_TRUE(bits.empty()) << algorithm;
  }
}

TEST(QueryBatchTest, EmptyItemsetInsideAFlatBatchMatchesScalar) {
  util::Rng rng(4);
  const std::size_t d = 9;
  const Database db = data::PowerLawBaskets(300, d, 1.0, 0.5, 4, 3, 0.2, rng);
  QueryBatch batch(d);
  AddIds(&batch, {1, 4});
  AddIds(&batch, {});
  AddIds(&batch, {});
  AddIds(&batch, {0, 2, 3});
  AddIds(&batch, {});
  std::vector<std::size_t> counts;
  ColumnStore(db).SupportCounts(batch, &counts);
  EXPECT_EQ(counts[1], db.num_rows());
  EXPECT_EQ(counts[4], db.num_rows());
  for (const char* algorithm : kAlgorithms) {
    const auto engine = Engine::Build(db, algorithm, Params(), rng);
    ASSERT_TRUE(engine.has_value()) << algorithm;
    std::vector<double> answers;
    engine->estimate_many(batch, &answers);
    std::vector<bool> bits;
    engine->are_frequent(batch, &bits);
    ASSERT_EQ(answers.size(), batch.size());
    ASSERT_EQ(bits.size(), batch.size());
    Itemset t(d);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch.CopyTo(i, &t);
      EXPECT_EQ(answers[i], engine->estimate(t)) << algorithm << " " << i;
      EXPECT_EQ(bits[i], engine->is_frequent(t)) << algorithm << " " << i;
    }
  }
}

}  // namespace
}  // namespace ifsketch::core
