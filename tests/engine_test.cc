#include "engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "util/random.h"

namespace ifsketch {
namespace {

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

core::Database TestDb(util::Rng& rng) {
  return data::PowerLawBaskets(1000, 12, 1.0, 0.5, 4, 3, 0.2, rng);
}

TEST(EngineTest, BuildRejectsUnknownAlgorithm) {
  util::Rng rng(1);
  const core::Database db = TestDb(rng);
  EXPECT_FALSE(Engine::Build(db, "NO-SUCH", Params(), rng).has_value());
  EXPECT_FALSE(Engine::Build(db, "", Params(), rng).has_value());
}

TEST(EngineTest, BuildRejectsInvalidParams) {
  util::Rng rng(1);
  const core::Database db = TestDb(rng);
  core::SketchParams p = Params();
  p.k = 0;
  EXPECT_FALSE(Engine::Build(db, "SUBSAMPLE", p, rng).has_value());
  p = Params();
  p.eps = -0.1;
  EXPECT_FALSE(Engine::Build(db, "SUBSAMPLE", p, rng).has_value());
  p = Params();
  p.delta = 1.0;
  EXPECT_FALSE(Engine::Build(db, "SUBSAMPLE", p, rng).has_value());
}

TEST(EngineTest, FromFileAndOpenRejectPayloadOfTheWrongSize) {
  util::Rng rng(1);
  const core::Database db = TestDb(rng);
  const auto built = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  ASSERT_TRUE(built.has_value());
  sketch::SketchFile file = built->file();
  // A header-valid file whose payload is not what SUBSAMPLE emits for
  // this shape must be refused at open, not abort inside a loader later.
  file.summary = util::BitVector(8);
  EXPECT_FALSE(Engine::FromFile(file).has_value());
  // The same refusal for files on disk, at both format versions
  // (ifsketch_fsck relies on it).
  for (const std::uint16_t version :
       {sketch::arena::kVersionLegacy, sketch::arena::kVersionArena}) {
    const std::string path = testing::TempDir() + "/engine_wrong_size_v" +
                             std::to_string(version) + ".ifsk";
    ASSERT_TRUE(sketch::SaveSketchFile(path, file, version));
    std::string error;
    EXPECT_FALSE(Engine::Open(path, &error).has_value());
    EXPECT_NE(error.find("is 8 bits but SUBSAMPLE would emit"),
              std::string::npos)
        << error;
  }
}

TEST(EngineTest, KnownAlgorithmsListsBuiltins) {
  const auto names = Engine::KnownAlgorithms();
  EXPECT_GE(names.size(), 6u);
}

TEST(EngineTest, BuildSaveOpenQueryRoundTrip) {
  util::Rng rng(2);
  const core::Database db = TestDb(rng);
  for (const char* name :
       {"SUBSAMPLE", "RELEASE-DB", "RELEASE-ANSWERS", "IMPORTANCE-SAMPLE",
        "MEDIAN-BOOST(SUBSAMPLE)"}) {
    const auto built = Engine::Build(db, name, Params(), rng);
    ASSERT_TRUE(built.has_value()) << name;
    EXPECT_EQ(built->algorithm(), name);
    EXPECT_EQ(built->n(), db.num_rows());
    EXPECT_EQ(built->d(), db.num_columns());

    const std::string path =
        testing::TempDir() + "/engine_test_" + std::to_string(rng.Next());
    ASSERT_TRUE(built->Save(path)) << name;

    // Open resolves the algorithm from the file alone -- the point of
    // the registry redesign.
    const auto opened = Engine::Open(path);
    ASSERT_TRUE(opened.has_value()) << name;
    EXPECT_EQ(opened->algorithm(), name);
    EXPECT_EQ(opened->summary_bits(), built->summary_bits());

    const core::Itemset t(db.num_columns(), {2, 7});
    EXPECT_EQ(opened->estimate(t), built->estimate(t)) << name;
    EXPECT_EQ(opened->is_frequent(t), built->is_frequent(t)) << name;
  }
}

TEST(EngineTest, OpenFailsOnMissingOrCorruptFiles) {
  EXPECT_FALSE(Engine::Open("/nonexistent/path.sk").has_value());
  const std::string garbage = testing::TempDir() + "/engine_garbage.sk";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "this is not an IFSK file";
  }
  EXPECT_FALSE(Engine::Open(garbage).has_value());
}

TEST(EngineTest, OpenFailsOnUnregisteredAlgorithmName) {
  util::Rng rng(3);
  const core::Database db = TestDb(rng);
  const auto built = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  ASSERT_TRUE(built.has_value());
  sketch::SketchFile file = built->file();
  file.algorithm = "PROPRIETARY-V2";  // a producer we don't know
  const std::string path = testing::TempDir() + "/engine_unknown_algo.sk";
  ASSERT_TRUE(sketch::SaveSketchFile(path, file));
  // The file itself is valid...
  ASSERT_TRUE(sketch::LoadSketchFile(path).has_value());
  // ...but the engine cannot resolve a query procedure for it.
  EXPECT_FALSE(Engine::Open(path).has_value());
  EXPECT_FALSE(Engine::FromFile(file).has_value());
}

TEST(EngineTest, EstimateManyMatchesScalarEstimates) {
  util::Rng rng(4);
  const core::Database db = TestDb(rng);
  const auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  ASSERT_TRUE(engine.has_value());
  std::vector<core::Itemset> queries;
  for (std::size_t a = 0; a + 1 < db.num_columns(); ++a) {
    queries.emplace_back(db.num_columns(),
                         std::vector<std::size_t>{a, a + 1});
  }
  std::vector<double> batched;
  engine->estimate_many(queries, &batched);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(engine->estimate(queries[i]), batched[i]) << i;
  }
  std::vector<bool> frequent;
  engine->are_frequent(queries, &frequent);
  ASSERT_EQ(frequent.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(engine->is_frequent(queries[i]), frequent[i]) << i;
  }
}

TEST(EngineTest, MineFindsPlantedItemset) {
  util::Rng rng(5);
  const std::size_t d = 10;
  const core::Database db = data::PlantedItemsets(
      4000, d, {{{1, 5}, 0.4}, {{2, 8}, 0.3}}, 0.05, rng);
  const auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  ASSERT_TRUE(engine.has_value());
  mining::AprioriOptions opt;
  opt.min_frequency = 0.2;
  opt.max_size = 2;
  const auto mined = engine->mine(opt);
  bool found = false;
  for (const auto& fi : mined) {
    if (fi.itemset == core::Itemset(d, {1, 5})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(EngineTest, SupportsQuerySizeReflectsAlgorithmLimits) {
  util::Rng rng(7);
  const core::Database db = TestDb(rng);
  // RELEASE-ANSWERS stores only the size-k answers (k=2 here); any other
  // size would alias into a wrong table slot, so it must be refused
  // rather than silently mis-answered.
  const auto answers = Engine::Build(db, "RELEASE-ANSWERS", Params(), rng);
  ASSERT_TRUE(answers.has_value());
  EXPECT_TRUE(answers->supports_query_size(2));
  EXPECT_FALSE(answers->supports_query_size(1));
  EXPECT_FALSE(answers->supports_query_size(3));

  // Sample-backed sketches answer any size; MEDIAN-BOOST delegates to
  // its inner algorithm.
  for (const char* name : {"SUBSAMPLE", "RELEASE-DB", "IMPORTANCE-SAMPLE",
                           "MEDIAN-BOOST(SUBSAMPLE)"}) {
    const auto engine = Engine::Build(db, name, Params(), rng);
    ASSERT_TRUE(engine.has_value()) << name;
    for (std::size_t size : {1, 2, 3}) {
      EXPECT_TRUE(engine->supports_query_size(size)) << name << " " << size;
    }
  }
}

TEST(EngineTest, InfoReportsAlgorithmAndEnvelope) {
  util::Rng rng(6);
  const core::Database db = TestDb(rng);
  const auto engine =
      Engine::Build(db, "MEDIAN-BOOST(SUBSAMPLE)", Params(), rng);
  ASSERT_TRUE(engine.has_value());
  const std::string info = engine->info();
  EXPECT_NE(info.find("MEDIAN-BOOST(SUBSAMPLE)"), std::string::npos);
  EXPECT_NE(info.find("RELEASE-ANSWERS"), std::string::npos);
  EXPECT_NE(info.find("for-all"), std::string::npos);
  const auto env = engine->envelope();
  EXPECT_GT(env.winner_bits, 0u);
}

}  // namespace
}  // namespace ifsketch
