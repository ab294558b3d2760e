#include "sketch/column_sample_estimator.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/check.h"
#include "util/kernels.h"
#include "util/thread_pool.h"

namespace ifsketch::sketch {

ColumnSampleEstimator::ColumnSampleEstimator(core::ColumnStore columns)
    : columns_(std::move(columns)) {}

ColumnSampleEstimator::ColumnSampleEstimator(core::ColumnStore columns,
                                             std::vector<std::size_t> bounds,
                                             GroupRule rule)
    : columns_(std::move(columns)),
      bounds_(std::move(bounds)),
      rule_(std::move(rule)) {
  IFSKETCH_CHECK(rule_ != nullptr && bounds_.size() >= 2 && bounds_[0] == 0 &&
                 bounds_.back() == columns_.num_rows() &&
                 std::is_sorted(bounds_.begin(), bounds_.end()));
}

ColumnSampleEstimator::ColumnSampleEstimator(core::ColumnStore columns,
                                             std::vector<double> coefficients)
    : columns_(std::move(columns)), coefficients_(std::move(coefficients)) {
  IFSKETCH_CHECK_EQ(coefficients_.size(), columns_.num_rows());
}

double ColumnSampleEstimator::EstimateFrequency(const core::Itemset& t) const {
  if (rule_ == nullptr && coefficients_.empty()) return columns_.Frequency(t);
  IFSKETCH_CHECK_EQ(t.universe(), columns_.num_columns());
  core::QueryBatch batch(t.universe());
  batch.Add(t);
  double answer = 0.0;
  EstimateRange(batch, 0, 1, &answer);
  return answer;
}

void ColumnSampleEstimator::EstimateMany(const core::QueryBatch& batch,
                                         std::vector<double>* answers) const {
  const std::size_t rows = columns_.num_rows();
  answers->resize(batch.size());
  if (rule_ == nullptr && coefficients_.empty()) {
    std::vector<std::size_t> counts;
    if (rows > 0) columns_.SupportCounts(batch, &counts);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      (*answers)[i] = rows == 0 ? 0.0
                                : static_cast<double>(counts[i]) /
                                      static_cast<double>(rows);
    }
    return;
  }
  IFSKETCH_CHECK(batch.empty() ||
                 batch.universe() == columns_.num_columns());
  double* out = answers->data();
  util::ThreadPool::Default().ParallelFor(
      0, batch.size(), core::ColumnStore::kQueryGrain,
      [this, &batch, out](std::size_t first, std::size_t last) {
        EstimateRange(batch, first, last, out);
      });
}

void ColumnSampleEstimator::EstimateRange(const core::QueryBatch& batch,
                                          std::size_t first, std::size_t last,
                                          double* answers) const {
  const util::BitKernels& kernels = util::ActiveKernels();
  const std::size_t rows = columns_.num_rows();
  const std::size_t words = (rows + 63) / 64;
  std::vector<std::uint64_t> hits;
  std::vector<std::size_t> counts(bounds_.empty() ? 0 : bounds_.size() - 1);
  std::vector<double> scratch(counts.size());
  for (std::size_t q = first; q < last; ++q) {
    // The rows containing the query: the AND of its columns on the
    // dispatched kernels, every row for the empty itemset.
    const std::span<const std::uint32_t> attrs = batch[q];
    if (attrs.empty()) {
      hits.assign(words, ~std::uint64_t{0});
      if (rows % 64 != 0) hits.back() = (std::uint64_t{1} << (rows % 64)) - 1;
    } else {
      const std::uint64_t* column = columns_.Column(attrs[0]).data();
      hits.assign(column, column + words);
      for (std::size_t i = 1; i < attrs.size(); ++i) {
        kernels.and_into(hits.data(), columns_.Column(attrs[i]).data(), words);
      }
    }
    if (rule_ == nullptr) {
      double acc = 0.0;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = hits[w]; bits != 0; bits &= bits - 1) {
          acc += coefficients_[w * 64 + static_cast<std::size_t>(
                                            std::countr_zero(bits))];
        }
      }
      const double est = rows == 0 ? 0.0 : acc / static_cast<double>(rows);
      answers[q] = est < 0.0 ? 0.0 : (est > 1.0 ? 1.0 : est);
      continue;
    }
    // One kernel popcount per group. Groups ascend and tile the rows, so
    // a word shared with the next group is masked to this group for the
    // count, then left holding only the next group's rows.
    for (std::size_t g = 0; g < counts.size(); ++g) {
      const std::size_t begin = bounds_[g];
      const std::size_t end = bounds_[g + 1];
      counts[g] = 0;
      if (begin == end) continue;
      const std::size_t last_word = (end - 1) / 64;
      const std::uint64_t mine = ~std::uint64_t{0} >> (63 - (end - 1) % 64);
      const std::uint64_t shared = hits[last_word];
      hits[last_word] = shared & mine;
      counts[g] = kernels.popcount_words(hits.data() + begin / 64,
                                         last_word - begin / 64 + 1);
      hits[last_word] = shared & ~mine;
    }
    answers[q] = rule_(counts, scratch);
  }
}

}  // namespace ifsketch::sketch
