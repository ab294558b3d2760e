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

// Opens `file` (under the test data dir) through BOTH load paths -- the
// zero-copy mapped path (views straight over the file image, columns
// adopted from the column section when it has one) and the copied path
// (owned summary, decoded by the algorithm's loader) -- and requires the
// answers recorded in `answers`.
void ExpectArenaGoldenOnBothLoadPaths(const std::string& file,
                                      const std::string& answers,
                                      const std::string& algorithm) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/" + answers);
  ASSERT_EQ(golden_lines.size(), queries.size());

  for (const Engine::LoadMode mode :
       {Engine::LoadMode::kMapped, Engine::LoadMode::kCopied}) {
    std::string error;
    auto engine = Engine::Open(dir + "/" + file, mode, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    EXPECT_EQ(engine->algorithm(), algorithm);
    EXPECT_EQ(engine->format_version(), sketch::arena::kVersionArena);
    EXPECT_EQ(engine->load_path(), mode == Engine::LoadMode::kMapped
                                       ? Engine::LoadPath::kMapped
                                       : Engine::LoadPath::kCopied);

    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);
    ASSERT_EQ(estimates.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(golden_lines[i].estimate, estimates[i])
          << file << " estimate drifted from the v1 recording on query "
          << golden_lines[i].key;
      ASSERT_EQ(golden_lines[i].frequent, bits[i])
          << file << " indicator drifted from the v1 recording on query "
          << golden_lines[i].key;
      ASSERT_EQ(golden_lines[i].estimate, engine->estimate(queries[i]));
      ASSERT_EQ(golden_lines[i].frequent, engine->is_frequent(queries[i]));
    }
  }
}

// The arena (v2) golden -- the same RELEASE-DB summary as
// release_db.ifsk, framed with aligned word sections -- must decode to
// the SAME recorded answers through both load paths. This pins the v2
// serialization and the mapped/copied equivalence to the checked-in
// bytes; the v1 goldens above keep pinning the legacy path.
TEST(GoldenFilesTest, ArenaGoldenBitIdenticalOnBothLoadPaths) {
  ExpectArenaGoldenOnBothLoadPaths("release_db_v2.ifsk",
                                   "release_db.answers.txt", "RELEASE-DB");
}

// A MEDIAN-BOOST(SUBSAMPLE) v2 file with the summary section alone: the
// framing MEDIAN-BOOST files were written with before the algorithm
// reported a row-major payload. Such files stay readable forever, so
// both load paths must decode the summary and answer exactly like the
// v1 recording -- the mapped path without a column section to adopt.
TEST(GoldenFilesTest, ColumnlessMedianBoostArenaGoldenOnBothLoadPaths) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const auto view = sketch::ViewSketchImage(
      util::MappedFile::Open(dir + "/median_boost_subsample_v2.ifsk"));
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(view->columns.has_value())
      << "this golden pins the summary-only framing; regenerate it only "
         "with make_golden, which writes it with ColumnSection::kOmit";
  ExpectArenaGoldenOnBothLoadPaths("median_boost_subsample_v2.ifsk",
                                   "median_boost_subsample.answers.txt",
                                   "MEDIAN-BOOST(SUBSAMPLE)");
}

// The checksummed arena golden -- release_db_v2.ifsk plus the CRC32C
// integrity trailer (PR 10) -- must be exactly the trailer-extended v2
// bytes and answer identically to the recorded answers through both
// load paths, pinning trailer validation to checked-in bytes.
TEST(GoldenFilesTest, ChecksummedArenaGoldenMatchesRecordedAnswers) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const std::string plain = ReadBytes(dir + "/release_db_v2.ifsk");
  const std::string checked = ReadBytes(dir + "/release_db_v2_crc.ifsk");
  ASSERT_FALSE(plain.empty());
  ASSERT_EQ(checked.size(), plain.size() + sketch::arena::kTrailerBytes);
  EXPECT_EQ(checked.compare(0, plain.size(), plain), 0)
      << "trailer golden diverged from the trailer-less v2 golden";

  const auto queries = golden::PinnedQueries();
  const auto golden_lines = LoadAnswers(dir + "/release_db.answers.txt");
  ASSERT_EQ(golden_lines.size(), queries.size());
  for (const Engine::LoadMode mode :
       {Engine::LoadMode::kMapped, Engine::LoadMode::kCopied}) {
    std::string error;
    auto engine =
        Engine::Open(dir + "/release_db_v2_crc.ifsk", mode, &error);
    ASSERT_TRUE(engine.has_value()) << error;
    std::vector<double> estimates;
    engine->estimate_many(queries, &estimates);
    std::vector<bool> bits;
    engine->are_frequent(queries, &bits);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(golden_lines[i].estimate, estimates[i]);
      ASSERT_EQ(golden_lines[i].frequent, bits[i]);
    }
  }
}

// Every load mode runs the one image parser, so a damaged file reads
// the same whichever path opens it: each truncation of a v2 golden must
// fail through kCopied and kMapped with the identical "path: byte N:
// reason" -- or, cut exactly where the checksum trailer starts, load
// through both.
TEST(GoldenFilesTest, TruncatedArenaGoldensFailIdenticallyOnBothLoadPaths) {
  const std::string dir = IFSKETCH_TEST_DATA_DIR;
  const struct {
    const char* name;
    std::size_t valid_prefixes;
  } kGoldens[] = {
      {"release_db_v2_crc.ifsk", 1},  // the cut where the trailer starts
      {"median_boost_subsample_v2.ifsk", 0},
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
      std::string copied_error;
      std::string mapped_error;
      const bool copied =
          Engine::Open(path, Engine::LoadMode::kCopied, &copied_error)
              .has_value();
      const bool mapped =
          Engine::Open(path, Engine::LoadMode::kMapped, &mapped_error)
              .has_value();
      ASSERT_EQ(copied, mapped) << "size " << size;
      ASSERT_EQ(copied_error, mapped_error) << "size " << size;
      if (copied) {
        ++accepted;
        continue;
      }
      ASSERT_EQ(copied_error.rfind(path + ": byte ", 0), 0u) << copied_error;
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
