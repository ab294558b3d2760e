#include "core/column_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "util/check.h"
#include "util/thread_pool.h"

namespace ifsketch::core {
namespace {

// The Apriori sibling relation: `a` and `b` (ascending attribute lists)
// have the same size and agree on all but their last attribute, so they
// can share one (|a|-1)-prefix AND accumulator.
bool SharesAprioriPrefix(std::span<const std::uint32_t> a,
                         std::span<const std::uint32_t> b) {
  return a.size() == b.size() && !a.empty() &&
         std::equal(a.begin(), a.end() - 1, b.begin());
}

// One round of the 64x64 transpose: swaps the off-diagonal kWidth-bit
// sub-blocks of every 2*kWidth-row band. The contiguous inner loop lets
// the compiler vectorize the wide rounds.
template <std::size_t kWidth, std::uint64_t kMask>
void SwapRound(std::uint64_t* block) {
  for (std::size_t band = 0; band < 64; band += 2 * kWidth) {
    for (std::size_t k = band; k < band + kWidth; ++k) {
      const std::uint64_t t =
          ((block[k] >> kWidth) ^ block[k + kWidth]) & kMask;
      block[k] ^= t << kWidth;
      block[k + kWidth] ^= t;
    }
  }
}

// Transposes a 64x64 bit block in place: bit j of block[i] trades places
// with bit i of block[j]. Six rounds of block swaps, halving the block
// width each round (Hacker's Delight 7-3, in LSB-first bit order).
void Transpose64(std::uint64_t* block) {
  SwapRound<32, 0x00000000ffffffffULL>(block);
  SwapRound<16, 0x0000ffff0000ffffULL>(block);
  SwapRound<8, 0x00ff00ff00ff00ffULL>(block);
  SwapRound<4, 0x0f0f0f0f0f0f0f0fULL>(block);
  SwapRound<2, 0x3333333333333333ULL>(block);
  SwapRound<1, 0x5555555555555555ULL>(block);
}

// Transposes n rows of d bits into d columns, 64x64 bits at a time;
// row_bits(i, attr, width) returns bits [attr, attr+width) of row i, and
// store(j, w, word) receives word w of column j. Attributes go in lanes
// of `lane` bits (d rounded up to a power of two, at most 64), so one
// 64x64 transpose turns 64/lane groups of 64 rows, packed side by side,
// into lane-wide runs of column words: row i of group g sits at bits
// [g*lane, g*lane + width) of block[i] and comes out as bit i of
// block[g*lane + j], for each attribute j of the lane.
template <typename RowBits, typename Store>
void TransposeBlocks(std::size_t n, std::size_t d, RowBits row_bits,
                     Store store) {
  const std::size_t lane = d >= 64 ? 64 : std::bit_ceil(d);
  const std::size_t groups = 64 / lane;
  const std::size_t row_words = (n + 63) / 64;
  std::uint64_t block[64];
  for (std::size_t attr = 0; attr < d; attr += lane) {
    const std::size_t width = d - attr < lane ? d - attr : lane;
    for (std::size_t word = 0; word < row_words; word += groups) {
      const std::size_t used =
          row_words - word < groups ? row_words - word : groups;
      std::fill(block, block + 64, 0);
      for (std::size_t g = 0; g < used; ++g) {
        const std::size_t first = (word + g) * 64;
        const std::size_t rows = n - first < 64 ? n - first : 64;
        for (std::size_t i = 0; i < rows; ++i) {
          block[i] |= row_bits(first + i, attr, width) << (g * lane);
        }
      }
      Transpose64(block);
      for (std::size_t g = 0; g < used; ++g) {
        for (std::size_t j = 0; j < width; ++j) {
          store(attr + j, word + g, block[g * lane + j]);
        }
      }
    }
  }
}

// TransposeBlocks into one owned n-bit vector per column.
template <typename RowBits>
std::vector<util::BitVector> TransposeRows(std::size_t n, std::size_t d,
                                           RowBits row_bits) {
  std::vector<std::vector<std::uint64_t>> words(
      d, std::vector<std::uint64_t>((n + 63) / 64, 0));
  TransposeBlocks(n, d, row_bits,
                  [&words](std::size_t j, std::size_t w,
                           std::uint64_t word) { words[j][w] = word; });
  std::vector<util::BitVector> columns;
  for (auto& column : words) {
    columns.push_back(util::BitVector::AdoptWords(std::move(column), n));
  }
  return columns;
}

}  // namespace

ColumnStore::ColumnStore(const Database& db)
    : ColumnStore(db.num_rows(),
                  TransposeRows(db.num_rows(), db.num_columns(),
                                [&db](std::size_t i, std::size_t attr,
                                      std::size_t width) {
                                  return db.Row(i).GetBits(attr, width);
                                })) {}

ColumnStore::ColumnStore(std::size_t n, std::vector<util::BitVector> columns)
    : n_(n), columns_(std::move(columns)) {
  for (const auto& c : columns_) {
    IFSKETCH_CHECK_EQ(c.size(), n_);
  }
}

ColumnStore ColumnStore::FromColumnWords(const std::uint64_t* base,
                                         std::size_t rows, std::size_t d,
                                         std::size_t stride_words) {
  IFSKETCH_CHECK_GE(stride_words, (rows + 63) / 64);
  std::vector<util::BitVector> columns;
  columns.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    columns.push_back(util::BitVector::View(base + j * stride_words, rows));
  }
  return ColumnStore(rows, std::move(columns));
}

ColumnStore ColumnStore::FromRowMajorBits(const util::BitVector& bits,
                                          std::size_t d,
                                          const std::vector<RowRun>& runs) {
  IFSKETCH_CHECK_GT(d, 0u);
  std::vector<std::size_t> starts;  // the start bit of every row
  for (const RowRun& run : runs) {
    IFSKETCH_CHECK_GE(run.stride_bits, d);
    for (std::size_t i = 0; i < run.rows; ++i) {
      starts.push_back(run.first_bit + i * run.stride_bits);
    }
    IFSKETCH_CHECK(run.rows == 0 || starts.back() + d <= bits.size());
  }
  return ColumnStore(
      starts.size(),
      TransposeRows(starts.size(), d,
                    [&](std::size_t i, std::size_t attr, std::size_t width) {
                      return bits.GetBits(starts[i] + attr, width);
                    }));
}

void ColumnStore::TransposeRowMajorBits(const util::BitVector& bits,
                                        std::size_t d, std::uint64_t* out,
                                        std::size_t stride_words) {
  IFSKETCH_CHECK(d > 0 && bits.size() % d == 0);
  const std::size_t rows = bits.size() / d;
  IFSKETCH_CHECK_GE(stride_words, (rows + 63) / 64);
  TransposeBlocks(
      rows, d,
      [&bits, d](std::size_t i, std::size_t attr, std::size_t width) {
        return bits.GetBits(i * d + attr, width);
      },
      [out, stride_words](std::size_t j, std::size_t w, std::uint64_t word) {
        out[j * stride_words + w] = word;
      });
}

std::size_t ColumnStore::SupportCount(const Itemset& t) const {
  IFSKETCH_CHECK_EQ(t.universe(), columns_.size());
  QueryBatch batch(t.universe());
  batch.Add(t);
  std::size_t count = 0;
  CountRange(batch, 0, 1, &count);
  return count;
}

void ColumnStore::SupportCounts(const QueryBatch& batch,
                                std::vector<std::size_t>* counts) const {
  // The universe check is hoisted out of the counting kernel; the
  // batch's own invariant keeps every id below it.
  IFSKETCH_CHECK(batch.empty() || batch.universe() == columns_.size());
  counts->resize(batch.size());
  std::size_t* out = counts->data();
  util::ThreadPool::Default().ParallelFor(
      0, batch.size(), kQueryGrain,
      [this, &batch, out](std::size_t first, std::size_t last) {
        CountRange(batch, first, last, out);
      });
}

void ColumnStore::CountRange(const QueryBatch& batch, std::size_t first,
                             std::size_t last, std::size_t* counts) const {
  // Chunk-local prefix accumulator: `prefix` is the AND of all but the
  // last attribute of the query `prefix_attrs` (empty = no cached
  // prefix). Chunk boundaries only forgo a reuse opportunity; every
  // path computes the exact same popcount. The accumulator is sized at
  // the chunk's first query of 3+ ids, sibling run or not, so what a
  // chunk allocates depends on its query sizes alone.
  util::BitVector prefix;
  std::span<const std::uint32_t> prefix_attrs;
  std::array<const util::BitVector*, 16> operands;
  std::vector<const util::BitVector*> many_operands;  // queries of 17+ ids
  for (std::size_t q = first; q < last; ++q) {
    const std::span<const std::uint32_t> attrs = batch[q];
    if (attrs.empty()) {
      counts[q] = n_;
      continue;
    }
    if (attrs.size() == 1) {
      counts[q] = columns_[attrs[0]].Count();
      continue;
    }
    if (attrs.size() == 2) {
      counts[q] = columns_[attrs[0]].AndCount(columns_[attrs[1]]);
      continue;
    }
    if (prefix.size() != n_) prefix = util::BitVector(n_);
    if (SharesAprioriPrefix(prefix_attrs, attrs)) {
      // Sibling of the query that built `prefix`: one fused AND-popcount.
      counts[q] = prefix.AndCount(columns_[attrs.back()]);
    } else if (q + 1 < last && SharesAprioriPrefix(attrs, batch[q + 1])) {
      // Head of a sibling run: materialize the prefix once, then this
      // query and each sibling cost one column AND each.
      prefix = columns_[attrs[0]];
      for (std::size_t i = 1; i + 1 < attrs.size(); ++i) {
        prefix &= columns_[attrs[i]];
      }
      prefix_attrs = attrs;
      counts[q] = prefix.AndCount(columns_[attrs.back()]);
    } else {
      // Isolated query: fused multi-operand kernel, single pass, no
      // accumulator materialized.
      const util::BitVector** ops = operands.data();
      if (attrs.size() > operands.size()) {
        many_operands.resize(attrs.size());
        ops = many_operands.data();
      }
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        ops[i] = &columns_[attrs[i]];
      }
      counts[q] = util::BitVector::AndCountMany(ops, attrs.size());
      prefix_attrs = {};
    }
  }
}

double ColumnStore::Frequency(const Itemset& t) const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(SupportCount(t)) / static_cast<double>(n_);
}

}  // namespace ifsketch::core
