#include "util/random.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace ifsketch::util {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
  // A zero state would lock the generator at zero; splitmix64 of any seed
  // cannot produce four zero outputs, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::UniformInt(std::uint64_t bound) {
  IFSKETCH_CHECK_GT(bound, 0u);
  // Lemire-style rejection: accept when the 128-bit product's low half is
  // outside the biased zone.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

BitVector Rng::RandomBits(std::size_t size) {
  BitVector v(size);
  for (std::size_t i = 0; i < size; ++i) {
    if (Next() & 1u) v.Set(i, true);
  }
  return v;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t count) {
  IFSKETCH_CHECK_LE(count, n);
  // Floyd's algorithm: O(count) expected insertions, then sort.
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t j = n - count; j < n; ++j) {
    const std::size_t t = UniformInt(j + 1);
    bool present = false;
    for (std::size_t x : out) {
      if (x == t) {
        present = true;
        break;
      }
    }
    out.push_back(present ? j : t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Rng::Gaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = UniformDouble();
  while (u1 <= 1e-300) u1 = UniformDouble();
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_gaussian_ = r * std::sin(theta);
  have_cached_gaussian_ = true;
  return r * std::cos(theta);
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1342543de82ef95ULL); }

}  // namespace ifsketch::util
