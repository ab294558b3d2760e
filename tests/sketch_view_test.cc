// The zero-copy mapped load path (util::MappedFile + sketch::SketchView
// + Engine::Open's LoadMode) against the copied load path.
//
// The contract under test: for EVERY registered algorithm, a sketch
// opened through the mapped path answers estimate_many / are_frequent /
// mine bit-identically to the same file opened through the copied path
// (which drops the column section and decodes the summary); legacy v1
// files keep loading (copied); and the image parser rejects malformed
// arenas with the byte offset of the first bad field, never crashing on
// mutants, and accepts only what re-serializes to the same file.

#include "sketch/sketch_view.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "util/random.h"

namespace ifsketch {
namespace {

std::string Sanitize(const std::string& name) {
  std::string safe = name;
  for (char& c : safe) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return safe;
}

core::SketchParams TestParams(core::Answer answer = core::Answer::kEstimator) {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = answer;
  return p;
}

constexpr std::size_t kRows = 400;
constexpr std::size_t kCols = 12;  // rows-per-column not a multiple of 64

core::Database TestDb() {
  util::Rng rng(4242);
  return data::PowerLawBaskets(kRows, kCols, 1.0, 0.5, 4, 3, 0.2, rng);
}

std::vector<core::Itemset> QueriesOfSize(std::size_t size,
                                         std::size_t count) {
  util::Rng rng(777 + size);
  std::vector<core::Itemset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(kCols);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(kCols)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

/// Saves `engine` under TempDir at the current (arena) format version.
std::string SaveTemp(const Engine& engine, const std::string& stem) {
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine.Save(path));
  return path;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs the image parser over the first `size` bytes of `bytes`.
std::optional<sketch::SketchView> ViewBytes(const std::string& bytes,
                                            std::size_t size,
                                            sketch::SketchError* error =
                                                nullptr) {
  return sketch::ViewSketchImage(
      util::MappedFile::FromBytes(bytes.data(), size), error);
}

// ---------------------------------------------------------------------
// Registry-driven equivalence: mapped == copied for every algorithm.

class MappedVsCopiedTest : public testing::TestWithParam<std::string> {};

TEST_P(MappedVsCopiedTest, AnswersBitIdenticalAcrossLoadPaths) {
  // Combinator registry entries list as "NAME(...)"; instantiate them
  // over SUBSAMPLE, like the golden spec does.
  std::string name = GetParam();
  const std::size_t placeholder = name.find("(...)");
  if (placeholder != std::string::npos) {
    name = name.substr(0, placeholder) + "(SUBSAMPLE)";
  }
  const core::Database db = TestDb();
  util::Rng rng(99);
  auto built = Engine::Build(db, name, TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path =
      SaveTemp(*built, "mapped_vs_copied_" + Sanitize(GetParam()));

  std::string error;
  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped, &error);
  ASSERT_TRUE(mapped.has_value()) << error;
  auto copied = Engine::Open(path, Engine::LoadMode::kCopied, &error);
  ASSERT_TRUE(copied.has_value()) << error;

  EXPECT_EQ(mapped->load_path(), Engine::LoadPath::kMapped);
  EXPECT_EQ(copied->load_path(), Engine::LoadPath::kCopied);
  EXPECT_EQ(mapped->format_version(), sketch::arena::kVersionArena);
  EXPECT_EQ(mapped->algorithm(), built->algorithm());

  // estimate_many / are_frequent at the guaranteed size k.
  const auto queries = QueriesOfSize(3, 64);
  std::vector<double> mapped_est, copied_est, built_est;
  mapped->estimate_many(queries, &mapped_est);
  copied->estimate_many(queries, &copied_est);
  built->estimate_many(queries, &built_est);
  ASSERT_EQ(mapped_est.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(mapped_est[i], copied_est[i]) << "query " << i;
    ASSERT_EQ(mapped_est[i], built_est[i]) << "query " << i;
  }

  std::vector<bool> mapped_bits, copied_bits;
  mapped->are_frequent(queries, &mapped_bits);
  copied->are_frequent(queries, &copied_bits);
  ASSERT_EQ(mapped_bits, copied_bits);

  // Scalar entry points agree with the batch (and across paths).
  ASSERT_EQ(mapped->estimate(queries[0]), copied->estimate(queries[0]));
  ASSERT_EQ(mapped->is_frequent(queries[0]), copied->is_frequent(queries[0]));

  // Full Apriori run, when the algorithm answers every level.
  bool mineable = true;
  for (std::size_t size = 1; size <= 3; ++size) {
    mineable = mineable && mapped->supports_query_size(size);
  }
  if (mineable) {
    mining::AprioriOptions options;
    options.min_frequency = 0.05;
    options.max_size = 3;
    const auto mapped_mined = mapped->mine(options);
    const auto copied_mined = copied->mine(options);
    ASSERT_EQ(mapped_mined.size(), copied_mined.size());
    for (std::size_t i = 0; i < mapped_mined.size(); ++i) {
      ASSERT_EQ(mapped_mined[i].itemset.Attributes(),
                copied_mined[i].itemset.Attributes());
      ASSERT_EQ(mapped_mined[i].frequency, copied_mined[i].frequency);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, MappedVsCopiedTest,
                         testing::ValuesIn(Engine::KnownAlgorithms()),
                         [](const auto& info) { return Sanitize(info.param); });

// Indicator-flavored sketches exercise LoadIndicatorFromColumns.
TEST(MappedLoadTest, IndicatorFlavorBitIdenticalAcrossLoadPaths) {
  const core::Database db = TestDb();
  util::Rng rng(5);
  auto built = Engine::Build(db, "SUBSAMPLE",
                             TestParams(core::Answer::kIndicator), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "mapped_indicator");

  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped);
  auto copied = Engine::Open(path, Engine::LoadMode::kCopied);
  ASSERT_TRUE(mapped.has_value());
  ASSERT_TRUE(copied.has_value());
  const auto queries = QueriesOfSize(3, 64);
  std::vector<bool> mapped_bits, copied_bits;
  mapped->are_frequent(queries, &mapped_bits);
  copied->are_frequent(queries, &copied_bits);
  EXPECT_EQ(mapped_bits, copied_bits);
}

// ---------------------------------------------------------------------
// Load-path selection and metadata.

TEST(MappedLoadTest, AutoMapsArenaFilesAndCopiesLegacyFiles) {
  const core::Database db = TestDb();
  util::Rng rng(7);
  auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
  ASSERT_TRUE(built.has_value());

  const std::string v2_path = SaveTemp(*built, "auto_v2");
  const std::string v1_path = testing::TempDir() + "/auto_v1.ifsk";
  ASSERT_TRUE(sketch::SaveSketchFile(v1_path, built->file(),
                                     sketch::arena::kVersionLegacy));

  auto v2 = Engine::Open(v2_path);
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(v2->load_path(), Engine::LoadPath::kMapped);
  EXPECT_EQ(v2->format_version(), sketch::arena::kVersionArena);
  EXPECT_TRUE(v2->file().summary.is_view());

  auto v1 = Engine::Open(v1_path);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->load_path(), Engine::LoadPath::kCopied);
  EXPECT_EQ(v1->format_version(), sketch::arena::kVersionLegacy);
  EXPECT_FALSE(v1->file().summary.is_view());

  // Same summary bits through every representation.
  EXPECT_EQ(v1->file().summary, v2->file().summary);
  EXPECT_EQ(v1->file().summary, built->file().summary);

  // Forcing kMapped on a v1 file fails with a version-shaped error.
  std::string error;
  EXPECT_FALSE(
      Engine::Open(v1_path, Engine::LoadMode::kMapped, &error).has_value());
  EXPECT_NE(error.find("v1"), std::string::npos);

  // info() names the load path and format so operators can confirm
  // zero-copy is active.
  EXPECT_NE(v2->info().find("mapped"), std::string::npos);
  EXPECT_NE(v2->info().find("v2"), std::string::npos);
  EXPECT_NE(v1->info().find("copied"), std::string::npos);
}

TEST(MappedLoadTest, ResidentBytesIsMappedImageSize) {
  const core::Database db = TestDb();
  util::Rng rng(11);
  auto built = Engine::Build(db, "RELEASE-DB", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "resident_bytes");

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::size_t file_size = static_cast<std::size_t>(in.tellg());

  auto mapped = Engine::Open(path, Engine::LoadMode::kMapped);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->resident_bytes(), file_size);

  auto copied = Engine::Open(path, Engine::LoadMode::kCopied);
  ASSERT_TRUE(copied.has_value());
  EXPECT_EQ(copied->resident_bytes(), (copied->summary_bits() + 7) / 8);
}

// A mapped engine must stay fully usable after the optional that carried
// it is gone and after copies of it are destroyed (the mapping is
// refcounted through every copy).
TEST(MappedLoadTest, MappedEngineSurvivesCopyAndMove) {
  const core::Database db = TestDb();
  util::Rng rng(13);
  auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "mapped_copy_move");
  const auto queries = QueriesOfSize(3, 16);
  std::vector<double> expected;
  built->estimate_many(queries, &expected);

  std::vector<double> got;
  {
    auto opened = Engine::Open(path, Engine::LoadMode::kMapped);
    ASSERT_TRUE(opened.has_value());
    Engine moved = *std::move(opened);
    opened.reset();
    {
      const Engine copy = moved;  // NOLINT(performance-unnecessary-copy)
      copy.estimate_many(queries, &got);
      ASSERT_EQ(got, expected);
    }
    moved.estimate_many(queries, &got);
    ASSERT_EQ(got, expected);
  }
}

// ---------------------------------------------------------------------
// In-place validation of malformed images.

class ArenaImageTest : public testing::Test {
 protected:
  void SetUp() override {
    const core::Database db = TestDb();
    util::Rng rng(17);
    auto built = Engine::Build(db, "SUBSAMPLE", TestParams(), rng);
    ASSERT_TRUE(built.has_value());
    path_ = SaveTemp(*built, "arena_image");
    bytes_ = ReadBytes(path_);
    ASSERT_TRUE(View().has_value());
  }

  std::optional<sketch::SketchView> View(
      sketch::SketchError* error = nullptr) const {
    return ViewBytes(bytes_, bytes_.size(), error);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(ArenaImageTest, RejectsTruncation) {
  sketch::SketchError error;
  for (const std::size_t keep : {0u, 3u, 5u, 40u, 64u, 128u}) {
    ASSERT_LT(keep, bytes_.size());
    EXPECT_FALSE(ViewBytes(bytes_, keep, &error).has_value()) << keep;
  }
}

// The version field selects the payload rule: relabeled v1, the same
// header reads the bytes after it as a byte-packed payload (owned bits,
// no column section), and a mapped Engine::Open refuses such a file.
TEST_F(ArenaImageTest, VersionFieldSelectsTheLegacyRule) {
  bytes_[4] = 1;  // version u16 low byte
  const auto view = View();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->file.version, sketch::arena::kVersionLegacy);
  EXPECT_FALSE(view->file.summary.is_view());
  EXPECT_FALSE(view->columns.has_value());

  const std::string path = testing::TempDir() + "/arena_image_as_v1.ifsk";
  std::ofstream(path, std::ios::binary) << bytes_;
  std::string error;
  EXPECT_FALSE(
      Engine::Open(path, Engine::LoadMode::kMapped, &error).has_value());
  EXPECT_NE(error.find("v1"), std::string::npos) << error;
}

TEST_F(ArenaImageTest, RejectsUnknownVersion) {
  bytes_[4] = 9;
  sketch::SketchError error;
  EXPECT_FALSE(View(&error).has_value());
  EXPECT_EQ(error.offset, 4u);
}

TEST_F(ArenaImageTest, RejectsTrailingGarbage) {
  bytes_.append(8, 'x');
  sketch::SketchError error;
  EXPECT_FALSE(View(&error).has_value());
  EXPECT_NE(error.message.find("section table"), std::string::npos);
}

// Regression: a bit count close enough to 2^64 that (bits+63)/64 wraps
// to a tiny word count must be rejected at the bit-count field -- not
// sail through the shape checks with a zero-word summary and crash the
// word-image code.
TEST_F(ArenaImageTest, RejectsWordCountWrappingBitCount) {
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t bits_at = 8 + name_len + 4 + 8 + 8 + 1 + 1 + 8 + 8;
  const std::uint64_t wrap_bits = 0xFFFFFFFFFFFFFFF7ull;  // 2^64 - 9
  std::memcpy(bytes_.data() + bits_at, &wrap_bits, sizeof(wrap_bits));
  sketch::SketchError error;
  EXPECT_FALSE(View(&error).has_value());
  EXPECT_EQ(error.offset, bits_at);
  EXPECT_NE(error.message.find("bit count"), std::string::npos);

  std::istringstream in(bytes_);
  EXPECT_FALSE(sketch::ReadSketch(in).has_value());
}

TEST_F(ArenaImageTest, ReportsOffsetsForHeaderFieldErrors) {
  // scope byte lives right after name + k + eps + delta; corrupt it and
  // the error must name its exact offset.
  const std::size_t name_len = 9;  // "SUBSAMPLE"
  const std::size_t scope_at = 8 + name_len + 4 + 8 + 8;
  bytes_[scope_at] = 7;
  sketch::SketchError error;
  EXPECT_FALSE(View(&error).has_value());
  EXPECT_EQ(error.offset, scope_at);
  EXPECT_NE(error.message.find("scope"), std::string::npos);
}

bool SameSketchFile(const sketch::SketchFile& a,
                    const sketch::SketchFile& b) {
  return a.algorithm == b.algorithm && a.params.k == b.params.k &&
         a.params.eps == b.params.eps && a.params.delta == b.params.delta &&
         a.params.scope == b.params.scope &&
         a.params.answer == b.params.answer && a.n == b.n && a.d == b.d &&
         a.version == b.version && a.summary == b.summary;
}

// The image parser must never crash on a mutant, and whatever it
// accepts must re-serialize (at the version it was read as) and
// re-parse to the same file -- a parser that "repairs" bytes into an
// unstable value is treated as a bug (the mapped-path cousin of
// SketchFileFuzzTest).
TEST_F(ArenaImageTest, MutantImagesNeverCrashAndRoundTripOrReject) {
  util::Rng rng(20260733);
  const std::size_t size = bytes_.size();
  std::size_t accepted = 0;
  constexpr std::size_t kMutants = 4000;
  for (std::size_t t = 0; t < kMutants; ++t) {
    std::string mutant = bytes_;
    const std::size_t mutations = 1 + rng.UniformInt(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      if (rng.UniformInt(2) == 0) {
        mutant[rng.UniformInt(size)] ^=
            static_cast<char>(1 << rng.UniformInt(8));
      } else {
        mutant[rng.UniformInt(size)] =
            static_cast<char>(rng.UniformInt(256));
      }
    }
    const std::size_t mutant_size =
        rng.UniformInt(8) == 0 ? rng.UniformInt(size + 1) : size;
    const auto view = ViewBytes(mutant, mutant_size);
    if (!view.has_value()) continue;  // clean rejection
    ++accepted;
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(sketch::WriteSketch(out, view->file, view->file.version))
        << "mutant " << t;
    const std::string again = out.str();
    const auto reparsed = ViewBytes(again, again.size());
    ASSERT_TRUE(reparsed.has_value()) << "mutant " << t;
    ASSERT_TRUE(SameSketchFile(view->file, reparsed->file))
        << "mutant " << t;
  }
  // Payload-bit flips are valid files, so some mutants must survive.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, kMutants);
}

}  // namespace
}  // namespace ifsketch
