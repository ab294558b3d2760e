// One image behind every Engine: util::MappedFile + sketch::SketchView,
// whether the image is an mmap'd file (Engine::Open) or laid out in
// memory (Engine::Build, Engine::FromFile).
//
// The contract under test: for EVERY registered algorithm, built,
// published (FromFile) and opened engines answer estimate_many /
// are_frequent / mine bit-identically to the decode reference
// (sketch::LoadEstimator / LoadIndicator over LoadSketchFile, which
// decodes the summary); legacy v1 files keep loading (decoded); the
// image parser rejects malformed arenas with the byte offset of the
// first bad field, never crashing on mutants, and accepts only what
// re-serializes to the same file; and CheckColumnSection finds a column
// section that disagrees with its summary.

#include "sketch/sketch_view.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
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

/// The decode reference for `path`: the file read into owned bits and
/// handed to the algorithm's decoding loaders.
struct DecodeReference {
  explicit DecodeReference(const std::string& path) {
    auto file = sketch::LoadSketchFile(path);
    EXPECT_TRUE(file.has_value()) << path;
    if (!file.has_value()) return;
    d = file->d;
    if (file->params.answer == core::Answer::kEstimator) {
      estimator = sketch::LoadEstimator(*file);
    }
    indicator = sketch::LoadIndicator(*file);
  }

  std::size_t d = 0;
  std::unique_ptr<core::FrequencyEstimator> estimator;
  std::unique_ptr<core::FrequencyIndicator> indicator;
};

/// The built engine, the same sketch published through FromFile, and
/// the same sketch saved at v2 and opened.
std::vector<std::pair<std::string, Engine>> BuiltPublishedOpened(
    const Engine& built, const std::string& path) {
  std::vector<std::pair<std::string, Engine>> engines;
  engines.emplace_back("built", built);
  auto published = Engine::FromFile(built.file());
  EXPECT_TRUE(published.has_value());
  if (published.has_value()) {
    engines.emplace_back("published", *std::move(published));
  }
  std::string error;
  auto opened = Engine::Open(path, &error);
  EXPECT_TRUE(opened.has_value()) << error;
  if (opened.has_value()) engines.emplace_back("opened", *std::move(opened));
  return engines;
}

// ---------------------------------------------------------------------
// Registry-driven equivalence: every Engine == the decode reference.

class ImageVsDecodeTest : public testing::TestWithParam<std::string> {};

TEST_P(ImageVsDecodeTest, AnswersMatchTheDecodeReference) {
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
      SaveTemp(*built, "image_vs_decode_" + Sanitize(GetParam()));
  const DecodeReference reference(path);
  ASSERT_NE(reference.estimator, nullptr);
  ASSERT_NE(reference.indicator, nullptr);
  const bool row_major =
      sketch::ResolveAlgorithm(built->file())->HasRowMajorPayload(
          built->params());

  const auto queries = QueriesOfSize(3, 64);
  std::vector<double> want_est;
  reference.estimator->EstimateMany(queries, &want_est);
  std::vector<bool> want_bits;
  reference.indicator->AreFrequent(queries, &want_bits);
  ASSERT_EQ(want_est.size(), queries.size());

  const auto engines = BuiltPublishedOpened(*built, path);
  ASSERT_EQ(engines.size(), 3u);
  for (const auto& [label, engine] : engines) {
    SCOPED_TRACE(label);
    EXPECT_EQ(engine.format_version(), sketch::arena::kVersionArena);
    EXPECT_EQ(engine.algorithm(), built->algorithm());
    EXPECT_TRUE(engine.file().summary.is_view());
    // Row-major payloads carry their columns in every image, so no
    // Engine transposes on its first query.
    EXPECT_EQ(engine.view().columns.has_value(), row_major);

    std::vector<double> est;
    engine.estimate_many(queries, &est);
    ASSERT_EQ(est, want_est);
    std::vector<bool> bits;
    engine.are_frequent(queries, &bits);
    ASSERT_EQ(bits, want_bits);

    // Scalar entry points agree with the reference too.
    ASSERT_EQ(engine.estimate(queries[0]),
              reference.estimator->EstimateFrequency(queries[0]));
    ASSERT_EQ(engine.is_frequent(queries[0]),
              reference.indicator->IsFrequent(queries[0]));

    // Full Apriori run, when the algorithm answers every level.
    bool mineable = true;
    for (std::size_t size = 1; size <= 3; ++size) {
      mineable = mineable && engine.supports_query_size(size);
    }
    if (mineable) {
      mining::AprioriOptions options;
      options.min_frequency = 0.05;
      options.max_size = 3;
      const auto mined = engine.mine(options);
      const auto want_mined = mining::MineWithEstimatorBatched(
          *reference.estimator, reference.d, options);
      ASSERT_EQ(mined.size(), want_mined.size());
      for (std::size_t i = 0; i < mined.size(); ++i) {
        ASSERT_EQ(mined[i].itemset.Attributes(),
                  want_mined[i].itemset.Attributes());
        ASSERT_EQ(mined[i].frequency, want_mined[i].frequency);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ImageVsDecodeTest,
                         testing::ValuesIn(Engine::KnownAlgorithms()),
                         [](const auto& info) { return Sanitize(info.param); });

// Indicator-flavored sketches exercise LoadIndicatorFromColumns.
TEST(EngineImageTest, IndicatorFlavorMatchesTheDecodeReference) {
  const core::Database db = TestDb();
  util::Rng rng(5);
  auto built = Engine::Build(db, "SUBSAMPLE",
                             TestParams(core::Answer::kIndicator), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "image_indicator");
  const DecodeReference reference(path);
  ASSERT_NE(reference.indicator, nullptr);
  const auto queries = QueriesOfSize(3, 64);
  std::vector<bool> want;
  reference.indicator->AreFrequent(queries, &want);
  for (const auto& [label, engine] : BuiltPublishedOpened(*built, path)) {
    std::vector<bool> bits;
    engine.are_frequent(queries, &bits);
    EXPECT_EQ(bits, want) << label;
  }
}

// ---------------------------------------------------------------------
// Where the image lives, and metadata.

TEST(EngineImageTest, OpenMapsArenaFilesAndDecodesLegacyFiles) {
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
  ASSERT_NE(v2->view().image, nullptr);
  EXPECT_TRUE(v2->view().image->is_mapped());
  EXPECT_EQ(v2->format_version(), sketch::arena::kVersionArena);
  EXPECT_TRUE(v2->file().summary.is_view());

  auto v1 = Engine::Open(v1_path);
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(v1->view().image, nullptr);
  EXPECT_FALSE(v1->view().columns.has_value());
  EXPECT_EQ(v1->format_version(), sketch::arena::kVersionLegacy);
  EXPECT_FALSE(v1->file().summary.is_view());

  // A built engine queries a private image of the same v2 bytes.
  ASSERT_NE(built->view().image, nullptr);
  EXPECT_FALSE(built->view().image->is_mapped());
  EXPECT_EQ(built->format_version(), sketch::arena::kVersionArena);

  // Same summary bits through every representation.
  EXPECT_EQ(v1->file().summary, v2->file().summary);
  EXPECT_EQ(v1->file().summary, built->file().summary);

  // info() says where the image lives and the format, so operators can
  // confirm zero-copy is active.
  EXPECT_NE(v2->info().find("mapped"), std::string::npos);
  EXPECT_NE(v2->info().find("v2"), std::string::npos);
  EXPECT_NE(v1->info().find("decoded"), std::string::npos);
  EXPECT_NE(built->info().find("in-memory image"), std::string::npos);
}

// A trailer-less saved file IS the built engine's image, byte for byte,
// so every v2 Engine pins the same bytes: summary plus column section.
TEST(EngineImageTest, ResidentBytesIsTheImageSize) {
  const core::Database db = TestDb();
  util::Rng rng(11);
  auto built = Engine::Build(db, "RELEASE-DB", TestParams(), rng);
  ASSERT_TRUE(built.has_value());
  const std::string path = SaveTemp(*built, "resident_bytes");
  const std::string bytes = ReadBytes(path);

  ASSERT_NE(built->view().image, nullptr);
  ASSERT_EQ(built->view().image->size(), bytes.size());
  EXPECT_EQ(std::memcmp(built->view().image->data(), bytes.data(),
                        bytes.size()),
            0);
  EXPECT_EQ(built->resident_bytes(), bytes.size());
  EXPECT_GT(built->resident_bytes(), 2 * ((built->summary_bits() + 7) / 8))
      << "the column section counts";

  auto published = Engine::FromFile(built->file());
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->resident_bytes(), bytes.size());

  auto mapped = Engine::Open(path);
  ASSERT_TRUE(mapped.has_value());
  EXPECT_EQ(mapped->resident_bytes(), bytes.size());

  const std::string v1_path = testing::TempDir() + "/resident_bytes_v1.ifsk";
  ASSERT_TRUE(sketch::SaveSketchFile(v1_path, built->file(),
                                     sketch::arena::kVersionLegacy));
  auto decoded = Engine::Open(v1_path);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->resident_bytes(), (decoded->summary_bits() + 7) / 8);
}

// A mapped engine must stay fully usable after the optional that carried
// it is gone and after copies of it are destroyed (the mapping is
// refcounted through every copy).
TEST(EngineImageTest, MappedEngineSurvivesCopyAndMove) {
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
    auto opened = Engine::Open(path);
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
// The column-section check the parser leaves out.

TEST(ColumnSectionCheckTest, EveryArenaGoldenPasses) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  for (const char* name :
       {"release_db_v2.ifsk", "release_db_v2_crc.ifsk",
        "median_boost_subsample_v2.ifsk"}) {
    const auto view =
        sketch::ViewSketchImage(util::MappedFile::Open(dir + "/" + name));
    ASSERT_TRUE(view.has_value()) << name;
    sketch::SketchError error;
    EXPECT_TRUE(sketch::CheckColumnSection(*view, &error))
        << name << ": byte " << error.offset << ": " << error.message;
  }
}

// One flipped bit in the first column word parses (the parser checks
// the section's shape, not its contents) but fails the check, at the
// byte offset of that word: the column section's start.
TEST(ColumnSectionCheckTest, FlippedColumnWordIsFoundAtItsOffset) {
  const std::string golden =
      std::string(IFSKETCH_TEST_DATA_DIR) + "/release_db_v2.ifsk";
  std::string bytes = ReadBytes(golden);
  const auto clean = ViewBytes(bytes, bytes.size());
  ASSERT_TRUE(clean.has_value());
  ASSERT_TRUE(clean->columns.has_value());
  const std::size_t column_at = static_cast<std::size_t>(
      reinterpret_cast<const unsigned char*>(clean->columns->words) -
      clean->image->data());
  ASSERT_EQ(column_at, 4160u);  // the golden's pinned layout

  for (const std::size_t word : {std::size_t{0}, std::size_t{7}}) {
    std::string flipped = bytes;
    flipped[column_at + 8 * word] ^= 1;
    const auto view = ViewBytes(flipped, flipped.size());
    ASSERT_TRUE(view.has_value());
    sketch::SketchError error;
    EXPECT_FALSE(sketch::CheckColumnSection(*view, &error));
    EXPECT_EQ(error.offset, column_at + 8 * word);
    EXPECT_EQ(error.message, "column section disagrees with summary");
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
// no column section), and Engine::Open decodes such a file rather than
// viewing it.
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
  const auto engine = Engine::Open(path, &error);
  ASSERT_TRUE(engine.has_value()) << error;
  EXPECT_EQ(engine->format_version(), sketch::arena::kVersionLegacy);
  EXPECT_EQ(engine->view().image, nullptr);
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
