#include "core/query_batch.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace ifsketch::core {
namespace {

// Writes t's ids, ascending, to dst; returns how many.
std::size_t WriteIds(const Itemset& t, std::uint32_t* dst) {
  const util::BitVector& bits = t.indicator();
  std::size_t n = 0;
  for (std::size_t w = 0; w < bits.num_words(); ++w) {
    for (std::uint64_t word = bits.data()[w]; word != 0; word &= word - 1) {
      dst[n++] = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
    }
  }
  return n;
}

}  // namespace

QueryBatch QueryBatch::FromItemsets(const std::vector<Itemset>& ts) {
  QueryBatch batch(ts.empty() ? 0 : ts[0].universe());
  IFSKETCH_CHECK_LE(batch.d_, kAnyUniverse);
  std::size_t ids = 0;
  for (const Itemset& t : ts) {
    IFSKETCH_CHECK_EQ(t.universe(), batch.d_);
    ids += t.size();
  }
  auto next = ts.begin();
  batch.Append(ts.size(), ids, [&next](std::uint32_t* dst) {
    return WriteIds(*next++, dst);
  });
  return batch;
}

bool QueryBatch::SetUniverse(std::size_t d) {
  if (bound_ > d || d > kAnyUniverse) return false;
  d_ = d;
  return true;
}

void QueryBatch::Reserve(std::size_t queries, std::size_t attrs) {
  offsets_.reserve(offsets_.size() + queries + (offsets_.empty() ? 1 : 0));
  attrs_.reserve(attrs_.size() + attrs);
}

void QueryBatch::Add(const Itemset& t) {
  IFSKETCH_CHECK(t.universe() == d_ && d_ <= kAnyUniverse);
  Append(1, t.size(),
         [&t](std::uint32_t* dst) { return WriteIds(t, dst); });
}

void QueryBatch::Append(const QueryBatch& other) {
  if (other.empty()) return;
  IFSKETCH_CHECK_LE(other.bound_, d_);
  IFSKETCH_CHECK_LE(attrs_.size() + other.attrs_.size(), kMaxAttributes);
  if (offsets_.empty()) offsets_.push_back(0);
  const auto base = static_cast<std::uint32_t>(attrs_.size());
  attrs_.insert(attrs_.end(), other.attrs_.begin(), other.attrs_.end());
  for (std::size_t i = 1; i < other.offsets_.size(); ++i) {
    offsets_.push_back(base + other.offsets_[i]);
  }
  bound_ = std::max(bound_, other.bound_);
}

void QueryBatch::CopyTo(std::size_t i, Itemset* t) const {
  if (t->universe() == d_) {
    t->Clear();
  } else {
    *t = Itemset(d_);
  }
  for (std::uint32_t a : (*this)[i]) t->Add(a);
}

std::size_t QueryBatch::SortUnique(std::uint32_t* ids, std::size_t n) {
  std::sort(ids, ids + n);
  return static_cast<std::size_t>(std::unique(ids, ids + n) - ids);
}

bool operator==(const QueryBatch& a, const QueryBatch& b) {
  return a.d_ == b.d_ && a.size() == b.size() && a.attrs_ == b.attrs_ &&
         (a.empty() || a.offsets_ == b.offsets_);
}

}  // namespace ifsketch::core
