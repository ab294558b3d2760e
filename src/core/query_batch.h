// A batch of itemset queries in one flat (CSR) buffer.
//
// The batched query paths -- FrequencyEstimator::EstimateMany,
// FrequencyIndicator::AreFrequent, ColumnStore::SupportCounts, Engine's
// estimate_many/are_frequent and the serving router -- take their
// queries as one QueryBatch rather than a vector of Itemsets: query i is
// attrs[offsets[i] .. offsets[i+1]), so a whole batch is two
// allocations however many queries it holds, and a kernel reads each
// query's attribute ids straight from the buffer. The server decodes a
// request frame body into one (serve/protocol.h) and hands that same
// batch to the kernels.
//
// Invariant, kept by every mutator: each query's attributes are strictly
// ascending and below universe(). Append stores a query as its attribute
// SET -- ids in any order, repeats allowed, sorted and deduplicated on
// the way in -- so {5,3,5} is the 2-itemset {3,5}, exactly what an
// Itemset built from the same ids holds.
//
// CSR memory follows the queries' own size: ~4 bytes per attribute plus
// 4 per query, whatever d is (a d-bit indicator per query would cost
// d/8 bytes each, ~1.3 GB for a million empty queries at d = 10,000).
#ifndef IFSKETCH_CORE_QUERY_BATCH_H_
#define IFSKETCH_CORE_QUERY_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/itemset.h"
#include "util/check.h"

namespace ifsketch::core {

/// Itemset queries over one universe, stored flat.
class QueryBatch {
 public:
  /// The universe of a batch read before its sketch is known: every u32
  /// attribute id fits. SetUniverse narrows it once d is.
  static constexpr std::size_t kAnyUniverse = std::size_t{1} << 32;

  /// An empty batch over universe d.
  QueryBatch() = default;
  explicit QueryBatch(std::size_t d) : d_(d) {}

  /// Packs `ts` in order (the adapter behind every vector<Itemset>
  /// batched entry point). The universe is ts[0].universe(), 0 for an
  /// empty vector; every itemset must share it.
  static QueryBatch FromItemsets(const std::vector<Itemset>& ts);

  std::size_t universe() const { return d_; }
  std::size_t size() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  bool empty() const { return size() == 0; }

  /// Query i's attribute ids, strictly ascending.
  std::span<const std::uint32_t> operator[](std::size_t i) const {
    return {attrs_.data() + offsets_[i], attrs_.data() + offsets_[i + 1]};
  }

  /// |query i|.
  std::size_t query_size(std::size_t i) const {
    return offsets_[i + 1] - offsets_[i];
  }

  /// Attribute ids over all queries.
  std::size_t attribute_count() const { return attrs_.size(); }

  /// One past the largest attribute id in the batch (0 when none).
  std::size_t bound() const { return bound_; }

  /// Re-targets the batch to universe d: true (and universe() == d) when
  /// every attribute is below d, false (unchanged) otherwise. O(1).
  bool SetUniverse(std::size_t d);

  /// Capacity for `queries` more queries of `attrs` more ids in total.
  void Reserve(std::size_t queries, std::size_t attrs);

  /// Appends `count` queries holding `ids` attribute ids in total, in
  /// one pass: `next(dst)` writes the next query's ids to dst[0..n), in
  /// any order, repeats allowed, and returns n; the n of all calls sum to
  /// at most `ids`. Each query is stored as its attribute set. Every id
  /// must be below universe(), and the batch stays under 2^32 ids
  /// (CHECKed).
  template <typename Next>
  void Append(std::size_t count, std::size_t ids, Next&& next);

  /// Appends `t`. Precondition: t.universe() == universe().
  void Add(const Itemset& t);

  /// Appends every query of `other`, in order. Precondition:
  /// other.bound() <= universe().
  void Append(const QueryBatch& other);

  /// Overwrites `*t` with query i as an Itemset over universe(), reusing
  /// its storage when it already has that universe (the scalar fallback
  /// loops keep one such scratch per chunk).
  void CopyTo(std::size_t i, Itemset* t) const;

  friend bool operator==(const QueryBatch& a, const QueryBatch& b);

  /// Offsets are u32, so a batch holds fewer than 2^32 attribute ids.
  static constexpr std::size_t kMaxAttributes = (std::size_t{1} << 32) - 1;

 private:
  // Stores the n ids at `ids` as their set, in place: returns its size.
  std::size_t Close(std::uint32_t* ids, std::size_t n) {
    for (std::size_t i = 1; i < n; ++i) {
      if (ids[i - 1] >= ids[i]) {
        n = SortUnique(ids, n);
        break;
      }
    }
    if (n != 0) {
      const std::size_t top = std::size_t{ids[n - 1]} + 1;
      IFSKETCH_CHECK_LE(top, d_);
      if (top > bound_) bound_ = top;
    }
    return n;
  }

  // The slow path of Close: ids that are not strictly ascending.
  static std::size_t SortUnique(std::uint32_t* ids, std::size_t n);

  std::size_t d_ = 0;
  std::size_t bound_ = 0;
  std::vector<std::uint32_t> offsets_;  // size() + 1 entries, or none
  std::vector<std::uint32_t> attrs_;
};

template <typename Next>
void QueryBatch::Append(std::size_t count, std::size_t ids, Next&& next) {
  std::size_t end = attrs_.size();
  const std::size_t limit = end + ids;
  IFSKETCH_CHECK_LE(limit, kMaxAttributes);
  attrs_.resize(limit);
  // An empty batch gains its leading 0 offset here, value-initialized.
  const std::size_t first = offsets_.empty() ? 1 : offsets_.size();
  offsets_.resize(first + count);
  for (std::size_t q = 0; q < count; ++q) {
    std::uint32_t* dst = attrs_.data() + end;
    const std::size_t n = next(dst);
    IFSKETCH_CHECK_LE(n, limit - end);
    end += Close(dst, n);
    offsets_[first + q] = static_cast<std::uint32_t>(end);
  }
  attrs_.resize(end);
}

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_QUERY_BATCH_H_
