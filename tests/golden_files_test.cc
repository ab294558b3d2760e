// Golden-file pinning: the checked-in .ifsk sketches under tests/data/
// must reopen through Engine::Open and reproduce their recorded answers
// exactly, byte for byte on the doubles.
//
// What this protects: the serialized IFSK format, the algorithm loaders,
// and every kernel/batching layer underneath estimate_many. A format
// change, a dispatch-tier divergence, or a batching rewrite that shifts
// any answer bit fails here -- silent drift of serialized results is the
// one failure mode the live round-trip tests cannot catch.
//
// The files are produced by tools/make_golden.cc (build target
// `make_golden`); the pinned constants, query set and file naming live
// in tests/golden_spec.h, shared by both sides. Regenerate the goldens
// ONLY when a PR deliberately changes the format or an algorithm's
// sampling, and say so in the PR: a kernel or performance change must
// never need new goldens.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine.h"
#include "golden_spec.h"
#include "sketch/sketch_file.h"
#include "sketch/sketch_view.h"
#include "util/mapped_file.h"
#include "util/random.h"

namespace ifsketch {
namespace {

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct GoldenLine {
  std::string key;   // "a,b,c" ascending attribute list
  double estimate;
  bool frequent;
};

std::vector<GoldenLine> LoadAnswers(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<GoldenLine> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    GoldenLine g;
    std::string hex;
    int bit = 0;
    fields >> g.key >> hex >> bit;
    EXPECT_FALSE(fields.fail()) << path << ": bad line: " << line;
    // strtod parses hexfloat ("%a" output) exactly -- no rounding between
    // the recorded bits and the comparison below.
    g.estimate = std::strtod(hex.c_str(), nullptr);
    g.frequent = bit != 0;
    lines.push_back(g);
  }
  return lines;
}

std::string AttrKey(const core::Itemset& t) {
  std::string key;
  for (std::size_t a : t.Attributes()) {
    if (!key.empty()) key.push_back(',');
    key += std::to_string(a);
  }
  return key;
}

class GoldenFilesTest : public testing::TestWithParam<const char*> {};

TEST_P(GoldenFilesTest, OpenReproducesRecordedAnswers) {
  const std::string slug = golden::Slug(GetParam());
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  auto engine = Engine::Open(dir + "/" + slug + ".ifsk");
  ASSERT_TRUE(engine.has_value())
      << "cannot open golden sketch for " << GetParam()
      << " (regenerate with the make_golden tool ONLY for a deliberate "
         "format change)";
  EXPECT_EQ(engine->algorithm(), GetParam());

  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/" + slug + ".answers.txt");
  ASSERT_EQ(golden_lines.size(), queries.size());

  std::vector<double> estimates;
  engine->estimate_many(queries, &estimates);
  std::vector<bool> bits;
  engine->are_frequent(queries, &bits);
  ASSERT_EQ(estimates.size(), queries.size());

  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(golden_lines[i].key, AttrKey(queries[i]))
        << "query set drifted from the recorded one at line " << i;
    // Exact double equality: the recorded hexfloat must be reproduced
    // bit for bit, across kernel dispatch tiers and thread counts.
    ASSERT_EQ(golden_lines[i].estimate, estimates[i])
        << GetParam() << " estimate drifted on query "
        << golden_lines[i].key;
    ASSERT_EQ(golden_lines[i].frequent, bits[i])
        << GetParam() << " indicator drifted on query "
        << golden_lines[i].key;
  }

  // The scalar entry point must agree with the recorded batch too.
  ASSERT_EQ(golden_lines[0].estimate, engine->estimate(queries[0]));
}

// Requires the pinned queries' answers from one source to be the
// recorded ones.
void ExpectRecordedAnswers(const std::vector<GoldenLine>& golden_lines,
                           const std::vector<double>& estimates,
                           const std::vector<bool>& bits,
                           const std::string& what) {
  ASSERT_EQ(estimates.size(), golden_lines.size()) << what;
  ASSERT_EQ(bits.size(), golden_lines.size()) << what;
  for (std::size_t i = 0; i < golden_lines.size(); ++i) {
    ASSERT_EQ(golden_lines[i].estimate, estimates[i])
        << what << " estimate drifted from the v1 recording on query "
        << golden_lines[i].key;
    ASSERT_EQ(golden_lines[i].frequent, bits[i])
        << what << " indicator drifted from the v1 recording on query "
        << golden_lines[i].key;
  }
}

// Answers `file` (under the test data dir) three ways -- opened (views
// straight over the mmap'd file, columns adopted from the column
// section when it has one), published (Engine::FromFile over the loaded
// file: an in-memory image written with the column section its
// algorithm calls for) and the decode reference (LoadEstimator /
// LoadIndicator over LoadSketchFile) -- and requires the answers
// recorded in `answers` from each.
void ExpectArenaGoldenOnEveryPath(const std::string& file,
                                  const std::string& answers,
                                  const std::string& algorithm) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const std::string path = dir + "/" + file;
  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/" + answers);
  ASSERT_EQ(golden_lines.size(), queries.size());

  sketch::SketchError load_error;
  const auto loaded = sketch::LoadSketchFile(path, &load_error);
  ASSERT_TRUE(loaded.has_value()) << load_error.message;
  std::string error;
  auto opened = Engine::Open(path, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  ASSERT_NE(opened->view().image, nullptr);
  EXPECT_TRUE(opened->view().image->is_mapped());
  auto published = Engine::FromFile(*loaded);
  ASSERT_TRUE(published.has_value());

  for (const auto& [label, engine] :
       {std::pair<const char*, const Engine*>{"opened", &*opened},
        std::pair<const char*, const Engine*>{"published", &*published}}) {
    EXPECT_EQ(engine->algorithm(), algorithm) << label;
    EXPECT_EQ(engine->format_version(), sketch::arena::kVersionArena);
    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);
    ExpectRecordedAnswers(golden_lines, estimates, bits, file + " " + label);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(golden_lines[i].estimate, engine->estimate(queries[i]));
      ASSERT_EQ(golden_lines[i].frequent, engine->is_frequent(queries[i]));
    }
  }

  const auto estimator = sketch::LoadEstimator(*loaded);
  const auto indicator = sketch::LoadIndicator(*loaded);
  ASSERT_NE(estimator, nullptr);
  ASSERT_NE(indicator, nullptr);
  std::vector<double> estimates;
  estimator->EstimateMany(queries, &estimates);
  std::vector<bool> bits;
  indicator->AreFrequent(queries, &bits);
  ExpectRecordedAnswers(golden_lines, estimates, bits, file + " decoded");
}

// The arena (v2) golden -- the same RELEASE-DB summary as
// release_db.ifsk, framed with aligned word sections -- must answer the
// SAME recorded answers opened, published and decoded. This pins the v2
// serialization to the checked-in bytes; the v1 goldens above keep
// pinning the legacy path.
TEST(GoldenFilesTest, ArenaGoldenBitIdenticalOnEveryPath) {
  ExpectArenaGoldenOnEveryPath("release_db_v2.ifsk", "release_db.answers.txt",
                               "RELEASE-DB");
}

// A MEDIAN-BOOST(SUBSAMPLE) v2 file with the summary section alone: the
// framing MEDIAN-BOOST files were written with before the algorithm
// reported a row-major payload. Such files stay readable forever, so an
// opened one must decode its summary -- with no column section to adopt
// -- and answer exactly like the v1 recording, as must the published
// image, which carries the column section.
TEST(GoldenFilesTest, ColumnlessMedianBoostArenaGoldenOnEveryPath) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const auto view = sketch::ViewSketchImage(
      util::MappedFile::Open(dir + "/median_boost_subsample_v2.ifsk"));
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->columns.has_value())
      << "this golden pins the summary-only framing; regenerate it only "
         "with make_golden, which writes it with ColumnSection::kOmit";
  ExpectArenaGoldenOnEveryPath("median_boost_subsample_v2.ifsk",
                               "median_boost_subsample.answers.txt",
                               "MEDIAN-BOOST(SUBSAMPLE)");
}

// The checksummed arena golden -- release_db_v2.ifsk plus the CRC32C
// integrity trailer (PR 10) -- must be exactly the trailer-extended v2
// bytes and answer identically to the recorded answers opened and
// decoded, pinning trailer validation to checked-in bytes.
TEST(GoldenFilesTest, ChecksummedArenaGoldenMatchesRecordedAnswers) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const std::string plain = ReadBytes(dir + "/release_db_v2.ifsk");
  const std::string checked = ReadBytes(dir + "/release_db_v2_crc.ifsk");
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(checked.size(), plain.size() + sketch::arena::kTrailerBytes);
  EXPECT_EQ(checked.compare(0, plain.size(), plain), 0)
      << "trailer golden diverged from the trailer-less v2 golden";
  ExpectArenaGoldenOnEveryPath("release_db_v2_crc.ifsk",
                               "release_db.answers.txt", "RELEASE-DB");
}

// Every reader runs the one image parser, so a damaged file reads the
// same whichever image it arrives in: each truncation of a v2 golden
// must fail through Engine::Open (mmap image), LoadSketchFile (buffered
// image) and ReadSketch (stream image) with the identical "path: byte
// N: reason" -- or, cut exactly where the checksum trailer starts, load
// through all three.
TEST(GoldenFilesTest, TruncatedArenaGoldensFailIdenticallyThroughEveryReader) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const struct {
    const char* name;
    std::size_t valid_prefixes;
  } kGoldens[] = {
      {"release_db_v2_crc.ifsk", 1},  // the cut where the trailer starts
      {"median_boost_subsample_v2.ifsk", 0},
  };
  const auto format = [](const std::string& path,
                         const sketch::SketchError& error) {
    return path + ": byte " + std::to_string(error.offset) + ": " +
           error.message;
  };
  for (const auto& golden : kGoldens) {
    SCOPED_TRACE(golden.name);
    const std::string bytes = ReadBytes(dir + "/" + golden.name);
    ASSERT_FALSE(bytes.empty());
    const std::string path =
        testing::TempDir() + "/truncated_" + golden.name;
    std::ofstream(path, std::ios::binary) << bytes;
    std::size_t accepted = 0;
    for (std::size_t size = bytes.size(); size-- > 0;) {
      std::filesystem::resize_file(path, size);
      std::string mapped_error;
      const bool mapped = Engine::Open(path, &mapped_error).has_value();
      sketch::SketchError buffered_error;
      const bool buffered =
          sketch::LoadSketchFile(path, &buffered_error).has_value();
      sketch::SketchError stream_error;
      std::istringstream stream(bytes.substr(0, size));
      const bool streamed =
          sketch::ReadSketch(stream, &stream_error).has_value();
      ASSERT_EQ(mapped, buffered) << "size " << size;
      ASSERT_EQ(mapped, streamed) << "size " << size;
      if (mapped) {
        ++accepted;
        continue;
      }
      ASSERT_EQ(mapped_error.rfind(path + ": byte ", 0), 0u) << mapped_error;
      ASSERT_EQ(mapped_error, format(path, buffered_error)) << "size " << size;
      ASSERT_EQ(mapped_error, format(path, stream_error)) << "size " << size;
    }
    EXPECT_EQ(accepted, golden.valid_prefixes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, GoldenFilesTest,
                         testing::ValuesIn(golden::kAlgorithms),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

}  // namespace
}  // namespace ifsketch
