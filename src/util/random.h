// Deterministic pseudo-random generation.
//
// All randomized components (sketching algorithms, hard-instance samplers,
// workload generators) draw from Rng so experiments are reproducible from
// a single seed. The engine is xoshiro256**, seeded via splitmix64.
#ifndef IFSKETCH_UTIL_RANDOM_H_
#define IFSKETCH_UTIL_RANDOM_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitvector.h"
#include "util/check.h"

namespace ifsketch::util {

/// xoshiro256** PRNG with convenience sampling methods.
class Rng {
 public:
  /// Seeds the four-word state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Inline: the streaming builders draw once
  /// per reservoir slot, thousands of times per row.
  std::uint64_t Next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Precondition: bound > 0.
  /// Uses rejection sampling so the result is exactly uniform.
  std::uint64_t UniformInt(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Uniform random bit vector of `size` bits.
  BitVector RandomBits(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[UniformInt(i)]);
    }
  }

  /// `count` indices sampled uniformly WITHOUT replacement from [0, n).
  /// Precondition: count <= n. Result is sorted ascending.
  std::vector<std::size_t> SampleWithoutReplacement(std::size_t n,
                                                    std::size_t count);

  /// Standard normal via Box-Muller (used by linalg test harnesses).
  double Gaussian();

  /// A fresh, independently-seeded child generator (for per-trial streams).
  Rng Fork();

  /// Complete generator state, for checkpoint/recovery (ingest WAL): a
  /// restored Rng continues the exact sequence the saved one would have
  /// produced, including a pending cached Gaussian.
  struct State {
    std::uint64_t s[4];
    bool have_cached_gaussian;
    double cached_gaussian;
  };

  State SaveState() const {
    return State{{s_[0], s_[1], s_[2], s_[3]},
                 have_cached_gaussian_,
                 cached_gaussian_};
  }

  void RestoreState(const State& state) {
    for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
    have_cached_gaussian_ = state.have_cached_gaussian;
    cached_gaussian_ = state.cached_gaussian;
  }

 private:
  std::uint64_t s_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Decides `rng.UniformInt(bound) == 0` -- true with probability
/// 1/bound, a size-1 reservoir's keep test -- from exactly the draws
/// UniformInt(bound) consumes, with the same verdict, but without its
/// division per draw: the rejection threshold and the divisibility
/// constants are computed once per bound, so a builder that tests many
/// slots against one bound pays one multiply and one rotate per slot.
class OneIn {
 public:
  /// Precondition: bound > 0.
  explicit OneIn(std::uint64_t bound) {
    IFSKETCH_CHECK_GT(bound, 0u);
    threshold_ = (~bound + 1) % bound;
    shift_ = std::countr_zero(bound);
    inverse_ = InverseOfOdd(bound >> shift_);
    limit_ = ~std::uint64_t{0} / bound;
  }

  bool operator()(Rng& rng) const {
    std::uint64_t r = rng.Next();
    while (r < threshold_) r = rng.Next();
    // r % bound == 0, tested without dividing (Hacker's Delight 10-17):
    // with bound = odd * 2^shift, r is a multiple of bound iff
    // rotr(r * odd^-1 mod 2^64, shift) <= (2^64 - 1) / bound.
    return std::rotr(r * inverse_, shift_) <= limit_;
  }

 private:
  // odd^-1 mod 2^64 by Newton's iteration: odd is its own inverse mod 8,
  // and each step doubles the correct low bits (3, 6, ..., 96).
  static std::uint64_t InverseOfOdd(std::uint64_t odd) {
    std::uint64_t inverse = odd;
    for (int i = 0; i < 5; ++i) inverse *= 2 - odd * inverse;
    return inverse;
  }

  std::uint64_t threshold_;  // UniformInt's rejection threshold
  std::uint64_t inverse_;    // inverse of bound's odd part mod 2^64
  std::uint64_t limit_;      // (2^64 - 1) / bound
  int shift_;                // trailing zero bits of bound
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_RANDOM_H_
