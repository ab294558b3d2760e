// Column-oriented query acceleration.
//
// Database stores rows; answering f_T scans all n rows and tests
// containment. For query-heavy workloads (validators, miners, the
// reconstruction decoders) the transposed layout is much faster: keep
// one n-bit column per attribute and compute support as the popcount of
// the word-parallel AND of T's columns -- O(n/64 * |T|) instead of
// O(n * d/64).
//
// SupportCounts is the hot path behind every batched uniform-sample
// query (EstimateMany / AreFrequent / Apriori levels). It layers three
// optimizations on the naive per-query loop, none of which changes a
// single count:
//   1. Fan-out: the batch is split into contiguous chunks run on
//      util::ThreadPool::Default(); each query writes only its own
//      result slot, so answers are deterministic at any thread count.
//   2. Fused kernels: an isolated q-attribute query is answered by
//      util::BitVector::AndCountMany -- one pass over the column words,
//      popcounting while ANDing, no materialized accumulator. All the
//      word-level work (Count / AndCount / AndCountMany / the prefix
//      &=) runs on the runtime-dispatched SIMD tier in util/kernels.h,
//      so SupportCounts inherits AVX2/AVX-512 popcount for free, with
//      counts bit-identical at every tier.
//   3. Prefix sharing: consecutive queries that agree on all but their
//      last attribute (exactly how the Apriori driver emits candidate
//      levels) reuse one materialized (q-1)-prefix accumulator, so a
//      run of siblings costs ~one column AND each instead of q-1.
//
// All methods are const and safe to call concurrently once the store is
// constructed.
#ifndef IFSKETCH_CORE_COLUMN_STORE_H_
#define IFSKETCH_CORE_COLUMN_STORE_H_

#include <vector>

#include "core/database.h"
#include "core/query_batch.h"

namespace ifsketch::core {

/// Immutable column-major view of a database, for fast frequency queries.
class ColumnStore {
 public:
  /// Minimum queries per thread-pool chunk in the batched query paths
  /// (here and in the sample estimators over a store).
  static constexpr std::size_t kQueryGrain = 32;

  /// `rows` rows of d bits inside a packed bit string, row i at bit
  /// first_bit + i * stride_bits; what lies between rows (header fields,
  /// per-row weights) is skipped, so stride_bits >= d.
  struct RowRun {
    std::size_t first_bit = 0;
    std::size_t rows = 0;
    std::size_t stride_bits = 0;
  };

  /// Transposes `db`, 64 rows x 64 attributes at a time.
  explicit ColumnStore(const Database& db);

  /// Adopts already-transposed columns without copying: O(d) moves.
  /// Every column must be `n` bits.
  ColumnStore(std::size_t n, std::vector<util::BitVector> columns);

  /// The one row decoder behind every sample-based loader: the rows of
  /// `runs`, in order, straight into columns. Rows are gathered a word
  /// at a time and transposed 64x64 bits at a time, so the cost follows
  /// the payload size, not its density. Preconditions: d > 0, every run
  /// lies inside `bits` with stride_bits >= d.
  static ColumnStore FromRowMajorBits(const util::BitVector& bits,
                                      std::size_t d,
                                      const std::vector<RowRun>& runs);

  /// The whole bit string as bits.size() / d rows of d bits (a
  /// row-major payload).
  static ColumnStore FromRowMajorBits(const util::BitVector& bits,
                                      std::size_t d) {
    IFSKETCH_CHECK(d > 0 && bits.size() % d == 0);
    return FromRowMajorBits(bits, d, {RowRun{0, bits.size() / d, d}});
  }

  /// The columns FromRowMajorBits(bits, d) would hold, written straight
  /// into caller storage: column j's ceil(rows/64) words at
  /// out[j*stride_words ..], the layout FromColumnWords adopts. Words
  /// between a column's end and the next stride are left untouched.
  static void TransposeRowMajorBits(const util::BitVector& bits,
                                    std::size_t d, std::uint64_t* out,
                                    std::size_t stride_words);

  /// View mode: borrows `d` already-transposed columns laid out at
  /// `stride_words`-word intervals starting at `base` (column j's words
  /// are base[j*stride .. j*stride + ceil(rows/64))), copying nothing --
  /// the zero-copy path over an mmap'd arena sketch image
  /// (sketch/sketch_view.h). The storage must outlive the store, and
  /// each column's bits beyond `rows` (tail bits and padding words up to
  /// the stride) must be zero. Queries are bit-identical to an owning
  /// store of the same columns; the caller keeps the mapping alive.
  static ColumnStore FromColumnWords(const std::uint64_t* base,
                                     std::size_t rows, std::size_t d,
                                     std::size_t stride_words);

  std::size_t num_rows() const { return n_; }
  std::size_t num_columns() const { return columns_.size(); }

  /// Rows containing T, by ANDing T's columns.
  std::size_t SupportCount(const Itemset& t) const;

  /// Batched SupportCount: counts[i] = rows containing query i,
  /// bit-identical to the scalar loop. Reads each query's attribute ids
  /// straight from the batch, runs on the default thread pool and shares
  /// prefix accumulators across adjacent queries (see file comment).
  /// Precondition: the batch is empty or its universe is num_columns().
  void SupportCounts(const QueryBatch& batch,
                     std::vector<std::size_t>* counts) const;

  /// Adapter: packs `ts` and counts it as above.
  void SupportCounts(const std::vector<Itemset>& ts,
                     std::vector<std::size_t>* counts) const {
    SupportCounts(QueryBatch::FromItemsets(ts), counts);
  }

  /// f_T(D), identical to Database::Frequency on the source data.
  double Frequency(const Itemset& t) const;

  /// The n-bit column of attribute j.
  const util::BitVector& Column(std::size_t j) const {
    return columns_[j];
  }

 private:
  // Serial kernel behind SupportCount(s): answers queries [first, last)
  // of `batch` into counts[first..last). Chunk-local state only, so
  // chunks can run concurrently.
  void CountRange(const QueryBatch& batch, std::size_t first,
                  std::size_t last, std::size_t* counts) const;

  std::size_t n_;
  std::vector<util::BitVector> columns_;
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_COLUMN_STORE_H_
