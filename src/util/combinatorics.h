// Combinatorial primitives used by the constructions.
//
// The Theorem 13 hard instance assigns "a unique set of exactly k-1
// attributes" to each of the 1/eps rows; we realize that assignment with
// the colexicographic ranking/unranking bijection between {0,...,C(n,k)-1}
// and k-subsets of [n]. Binomials are computed with saturation so that
// parameter-regime checks like 1/eps <= C(d/2, k-1) are safe for large d.
#ifndef IFSKETCH_UTIL_COMBINATORICS_H_
#define IFSKETCH_UTIL_COMBINATORICS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ifsketch::util {

/// Saturating binomial coefficient C(n, k); returns kBinomialInf if the
/// exact value exceeds ~2^62 (sufficient for all regime checks here).
inline constexpr std::uint64_t kBinomialInf = std::uint64_t{1} << 62;
std::uint64_t Binomial(std::uint64_t n, std::uint64_t k);

/// Natural log of C(n, k) via ln Gamma (usable far beyond the saturation
/// point of Binomial; used for sketch-size formulas log C(d,k)). Safe to
/// call from any number of threads at once.
double LogBinomial(std::uint64_t n, std::uint64_t k);

/// The `rank`-th k-subset of [n] in colexicographic order, as ascending
/// element indices. Precondition: rank < Binomial(n, k).
std::vector<std::size_t> UnrankSubset(std::uint64_t rank, std::size_t n,
                                      std::size_t k);

/// Inverse of UnrankSubset. `subset` must be ascending and within [0, n).
std::uint64_t RankSubset(const std::vector<std::size_t>& subset,
                         std::size_t n);
/// The same over 32-bit ids, e.g. one query of a core::QueryBatch.
std::uint64_t RankSubset(std::span<const std::uint32_t> subset,
                         std::size_t n);

/// Advances `subset` (ascending k-subset of [0, n)) to its colex successor.
/// Returns false when `subset` was the last subset (and leaves it first).
bool NextSubset(std::vector<std::size_t>& subset, std::size_t n);

/// Enumerates all k-subsets of [0, n). Intended for small C(n,k) only
/// (RELEASE-ANSWERS, exhaustive validity checks in tests).
std::vector<std::vector<std::size_t>> AllSubsets(std::size_t n,
                                                 std::size_t k);

/// Floor of log2(x). Precondition: x > 0.
int FloorLog2(std::uint64_t x);

/// Ceiling of log2(x). Precondition: x > 0.
int CeilLog2(std::uint64_t x);

/// The q-times iterated logarithm log^{(q)}(x) base 2, clamped below at 1.
/// Appears in the Theorem 16 bound kd log(d/k) / (eps^2 log^{(q)}(1/eps)).
double IteratedLog2(double x, int q);

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_COMBINATORICS_H_
