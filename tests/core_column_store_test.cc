#include "core/column_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/validate.h"
#include "data/generators.h"
#include "mining/apriori.h"
#include "util/combinatorics.h"

namespace ifsketch::core {
namespace {

TEST(ColumnStoreTest, MatchesRowStoreExhaustively) {
  util::Rng rng(1);
  const Database db = data::UniformRandom(200, 10, 0.45, rng);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.num_rows(), 200u);
  EXPECT_EQ(cs.num_columns(), 10u);
  for (std::size_t k = 0; k <= 4; ++k) {
    for (const auto& attrs : util::AllSubsets(10, k)) {
      const Itemset t(10, attrs);
      EXPECT_EQ(cs.SupportCount(t), db.SupportCount(t));
      EXPECT_DOUBLE_EQ(cs.Frequency(t), db.Frequency(t));
    }
  }
}

TEST(ColumnStoreTest, EmptyItemsetIsAllRows) {
  util::Rng rng(2);
  const Database db = data::UniformRandom(33, 5, 0.2, rng);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.SupportCount(Itemset(5)), 33u);
  EXPECT_DOUBLE_EQ(cs.Frequency(Itemset(5)), 1.0);
}

TEST(ColumnStoreTest, EmptyDatabase) {
  const Database db(0, 4);
  const ColumnStore cs(db);
  EXPECT_EQ(cs.Frequency(Itemset(4, {0})), 0.0);
}

TEST(ColumnStoreTest, ColumnsMatchSource) {
  util::Rng rng(3);
  const Database db = data::UniformRandom(70, 8, 0.5, rng);
  const ColumnStore cs(db);
  for (std::size_t j = 0; j < 8; ++j) {
    EXPECT_EQ(cs.Column(j), db.Column(j));
  }
}

TEST(ColumnStoreTest, DrivesMinerIdentically) {
  util::Rng rng(4);
  const Database db =
      data::PowerLawBaskets(600, 16, 1.0, 0.5, 3, 3, 0.25, rng);
  const ColumnStore cs(db);
  mining::AprioriOptions opt;
  opt.min_frequency = 0.105;
  opt.max_size = 3;
  const auto via_rows = mining::MineDatabase(db, opt);
  const auto via_cols = mining::MineFrequentItemsets(
      16, [&cs](const Itemset& t) { return cs.Frequency(t); }, opt);
  ASSERT_EQ(via_rows.size(), via_cols.size());
  for (std::size_t i = 0; i < via_rows.size(); ++i) {
    EXPECT_EQ(via_rows[i].itemset, via_cols[i].itemset);
    EXPECT_DOUBLE_EQ(via_rows[i].frequency, via_cols[i].frequency);
  }
}

TEST(ColumnStoreTest, UniverseMismatchDies) {
  const Database db(4, 6);
  const ColumnStore cs(db);
  EXPECT_DEATH(cs.SupportCount(Itemset(7, {0})), "");
}

// The strided row decoder against a bit-by-bit reference: rows behind
// header fields, rows interleaved with per-row fields (stride > d),
// several runs (strata), empty runs, widths on both sides of a 64-bit
// word, and row counts off a multiple of 64.
TEST(ColumnStoreTest, StridedRowDecoderMatchesBitReference) {
  util::Rng rng(17);
  for (std::size_t d : {1u, 5u, 32u, 63u, 64u, 65u, 130u}) {
    const std::vector<ColumnStore::RowRun> runs = {
        {64, 70, d}, {64 + 70 * d + 64, 0, d}, {64 + 70 * d + 64, 3, d + 64},
        {64 + 70 * d + 64 + 3 * (d + 64), 131, d + 1}};
    const ColumnStore::RowRun& last = runs.back();
    const util::BitVector bits =
        rng.RandomBits(last.first_bit + last.rows * last.stride_bits + 5);
    const ColumnStore columns = ColumnStore::FromRowMajorBits(bits, d, runs);
    ASSERT_EQ(columns.num_rows(), 70u + 3u + 131u);
    ASSERT_EQ(columns.num_columns(), d);
    std::size_t row = 0;
    for (const ColumnStore::RowRun& run : runs) {
      for (std::size_t i = 0; i < run.rows; ++i, ++row) {
        for (std::size_t j = 0; j < d; ++j) {
          ASSERT_EQ(columns.Column(j).Get(row),
                    bits.Get(run.first_bit + i * run.stride_bits + j))
              << "d=" << d << " row " << row << " attr " << j;
        }
      }
    }
    // Bits past the last row stay zero (the kernels rely on it).
    for (std::size_t j = 0; j < d; ++j) {
      ASSERT_EQ(columns.Column(j).Count(),
                columns.Column(j).SetBits().size());
    }
  }
}

// The whole-string overload is the decoder with one unit-stride run, and
// transposing a database's rows reproduces its columns.
TEST(ColumnStoreTest, RowMajorBitsMatchDatabaseColumns) {
  util::Rng rng(18);
  const Database db = data::UniformRandom(333, 70, 0.3, rng);
  util::BitVector bits(db.num_rows() * db.num_columns());
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    for (std::size_t j = 0; j < db.num_columns(); ++j) {
      bits.Set(i * db.num_columns() + j, db.Row(i).Get(j));
    }
  }
  const ColumnStore decoded =
      ColumnStore::FromRowMajorBits(bits, db.num_columns());
  const ColumnStore transposed(db);
  ASSERT_EQ(decoded.num_rows(), db.num_rows());
  for (std::size_t j = 0; j < db.num_columns(); ++j) {
    ASSERT_EQ(decoded.Column(j), transposed.Column(j)) << j;
  }
  const ColumnStore empty = ColumnStore::FromRowMajorBits(util::BitVector(), 4);
  EXPECT_EQ(empty.num_rows(), 0u);
  EXPECT_EQ(empty.num_columns(), 4u);
}

// The in-place transpose behind the IFSK column section writes exactly
// the columns FromRowMajorBits decodes, at the given stride, and leaves
// the words between a column's end and the next stride alone -- at
// widths that pack several row groups into one 64x64 block and at row
// counts on both sides of a group boundary.
TEST(ColumnStoreTest, TransposeIntoStridedWordsMatchesTheDecoder) {
  util::Rng rng(19);
  constexpr std::uint64_t kPad = 0xa5a5a5a5a5a5a5a5ULL;
  for (std::size_t d : {1u, 3u, 12u, 16u, 17u, 32u, 33u, 64u, 65u, 130u}) {
    for (std::size_t rows : {1u, 63u, 64u, 65u, 129u, 300u, 2440u}) {
      const util::BitVector bits = rng.RandomBits(rows * d);
      const ColumnStore want = ColumnStore::FromRowMajorBits(bits, d);
      const std::size_t words = (rows + 63) / 64;
      const std::size_t stride = words + 3;
      std::vector<std::uint64_t> out(d * stride, kPad);
      ColumnStore::TransposeRowMajorBits(bits, d, out.data(), stride);
      for (std::size_t j = 0; j < d; ++j) {
        for (std::size_t w = 0; w < stride; ++w) {
          ASSERT_EQ(out[j * stride + w],
                    w < words ? want.Column(j).data()[w] : kPad)
              << "d=" << d << " rows=" << rows << " column " << j
              << " word " << w;
        }
        for (std::size_t i = 0; i < rows; ++i) {
          ASSERT_EQ(want.Column(j).Get(i), bits.Get(i * d + j));
        }
      }
    }
  }
}

}  // namespace
}  // namespace ifsketch::core
