#include "util/combinatorics.h"

#include <math.h>

#include <cmath>

#include "util/check.h"

namespace ifsketch::util {

std::uint64_t Binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    // result = result * (n - k + i) / i, with overflow saturation.
    const std::uint64_t num = n - k + i;
    if (result > kBinomialInf / num) return kBinomialInf;
    result = result * num / i;  // exact: C(n-k+i, i) is integral
    if (result >= kBinomialInf) return kBinomialInf;
  }
  return result;
}

double LogBinomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return -1e300;
  // lgamma_r: std::lgamma's values without its write to the global
  // `signgam`, a data race when engines open on several threads.
  int sign = 0;
  return ::lgamma_r(static_cast<double>(n) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(k) + 1.0, &sign) -
         ::lgamma_r(static_cast<double>(n - k) + 1.0, &sign);
}

std::vector<std::size_t> UnrankSubset(std::uint64_t rank, std::size_t n,
                                      std::size_t k) {
  IFSKETCH_CHECK_LT(rank, Binomial(n, k));
  // Colex unranking: choose the largest element c with C(c, k) <= rank,
  // recurse on rank - C(c, k) with k-1.
  std::vector<std::size_t> out(k);
  std::size_t kk = k;
  while (kk > 0) {
    std::size_t c = kk - 1;
    while (Binomial(c + 1, kk) <= rank) ++c;
    out[kk - 1] = c;
    rank -= Binomial(c, kk);
    --kk;
  }
  (void)n;
  return out;
}

namespace {

template <typename Subset>
std::uint64_t Rank(const Subset& subset, std::size_t n) {
  std::uint64_t rank = 0;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    IFSKETCH_CHECK_LT(subset[i], n);
    if (i > 0) IFSKETCH_CHECK_GT(subset[i], subset[i - 1]);
    rank += Binomial(subset[i], i + 1);
  }
  return rank;
}

}  // namespace

std::uint64_t RankSubset(const std::vector<std::size_t>& subset,
                         std::size_t n) {
  return Rank(subset, n);
}

std::uint64_t RankSubset(std::span<const std::uint32_t> subset,
                         std::size_t n) {
  return Rank(subset, n);
}

bool NextSubset(std::vector<std::size_t>& subset, std::size_t n) {
  const std::size_t k = subset.size();
  // Find the lowest position that can advance without colliding with the
  // next element; reset everything below it. This is colex order.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t limit = (i + 1 < k) ? subset[i + 1] : n;
    if (subset[i] + 1 < limit) {
      ++subset[i];
      for (std::size_t j = 0; j < i; ++j) subset[j] = j;
      return true;
    }
  }
  for (std::size_t j = 0; j < k; ++j) subset[j] = j;
  return false;
}

std::vector<std::vector<std::size_t>> AllSubsets(std::size_t n,
                                                 std::size_t k) {
  std::vector<std::vector<std::size_t>> out;
  if (k > n) return out;
  std::vector<std::size_t> cur(k);
  for (std::size_t i = 0; i < k; ++i) cur[i] = i;
  do {
    out.push_back(cur);
  } while (NextSubset(cur, n));
  return out;
}

int FloorLog2(std::uint64_t x) {
  IFSKETCH_CHECK_GT(x, 0u);
  int l = -1;
  while (x != 0) {
    x >>= 1;
    ++l;
  }
  return l;
}

int CeilLog2(std::uint64_t x) {
  IFSKETCH_CHECK_GT(x, 0u);
  const int fl = FloorLog2(x);
  return ((std::uint64_t{1} << fl) == x) ? fl : fl + 1;
}

double IteratedLog2(double x, int q) {
  double v = x;
  for (int i = 0; i < q; ++i) {
    if (v <= 2.0) return 1.0;
    v = std::log2(v);
  }
  return v < 1.0 ? 1.0 : v;
}

}  // namespace ifsketch::util
