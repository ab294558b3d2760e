#include "util/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>
#include <vector>

namespace ifsketch::util {
namespace {

TEST(RandomTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.UniformInt(1), 0u);
  }
}

TEST(RandomTest, UniformIntCoversSupport) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RandomTest, UniformIntApproximatelyUniform) {
  Rng rng(7);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << b;
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Rng rng(8);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RandomTest, RandomBitsDensityHalf) {
  Rng rng(10);
  const BitVector v = rng.RandomBits(10000);
  EXPECT_NEAR(static_cast<double>(v.Count()), 5000.0, 300.0);
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RandomTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(60);
    const std::size_t k = rng.UniformInt(n + 1);
    const auto sample = rng.SampleWithoutReplacement(n, k);
    ASSERT_EQ(sample.size(), k);
    for (std::size_t i = 0; i < sample.size(); ++i) {
      EXPECT_LT(sample[i], n);
      if (i > 0) {
        EXPECT_GT(sample[i], sample[i - 1]);
      }
    }
  }
}

TEST(RandomTest, SampleWithoutReplacementFull) {
  Rng rng(13);
  const auto sample = rng.SampleWithoutReplacement(10, 10);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RandomTest, SampleWithoutReplacementUniformMargins) {
  Rng rng(14);
  constexpr int kTrials = 20000;
  int counts[10] = {};
  for (int t = 0; t < kTrials; ++t) {
    for (std::size_t idx : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[idx];
    }
  }
  // Each element appears with probability 3/10.
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(counts[i], kTrials * 0.3, 400) << i;
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng rng(15);
  double sum = 0.0, sumsq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.03);
  EXPECT_NEAR(sumsq / kDraws, 1.0, 0.05);
}

TEST(RandomTest, ForkIndependence) {
  Rng rng(16);
  Rng child = rng.Fork();
  // The child should not replay the parent's stream.
  Rng parent_copy(16);
  parent_copy.Fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.Next() == rng.Next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// OneIn(t) must consume exactly the draws of UniformInt(t) and return
// UniformInt(t) == 0, leaving the generator in the same state.
void ExpectOneInMatchesUniformInt(std::uint64_t bound, std::uint64_t seed,
                                  int draws) {
  Rng a(seed);
  Rng b(seed);
  const OneIn keep(bound);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(keep(a), b.UniformInt(bound) == 0)
        << "bound " << bound << " draw " << i;
  }
  const Rng::State sa = a.SaveState();
  const Rng::State sb = b.SaveState();
  for (int w = 0; w < 4; ++w) {
    ASSERT_EQ(sa.s[w], sb.s[w]) << "bound " << bound;
  }
}

TEST(RandomTest, OneInMatchesUniformIntDrawForDraw) {
  std::vector<std::uint64_t> bounds = {1, 2, 3, ~std::uint64_t{0}};
  for (int j = 1; j <= 63; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    bounds.push_back(p);
    bounds.push_back(p - 1);
    bounds.push_back(p + 1);
  }
  for (const std::uint64_t bound : bounds) {
    ExpectOneInMatchesUniformInt(bound, bound ^ 0x5eed, 2000);
  }
  // Seeded random bounds of every magnitude, and small ones where a
  // keep verdict is common.
  Rng pick(77);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t bound = pick.Next() >> pick.UniformInt(64);
    ExpectOneInMatchesUniformInt(bound == 0 ? 1 : bound, pick.Next(), 2000);
    ExpectOneInMatchesUniformInt(1 + pick.UniformInt(64), pick.Next(), 2000);
  }
}

// The inverse of odd `a` modulo 2^64.
std::uint64_t InverseMod64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

// A generator whose next draw is `r`: xoshiro256** outputs
// rotl(s[1] * 5, 7) * 9, which s[1] = rotr(r * 9^-1, 7) * 5^-1 inverts.
Rng RngWhoseNextDrawIs(std::uint64_t r) {
  const std::uint64_t s1 =
      std::rotr(r * InverseMod64(9), 7) * InverseMod64(5);
  Rng rng;
  rng.RestoreState(Rng::State{{0x243f6a8885a308d3ULL, s1,
                               0x13198a2e03707344ULL, 0xa4093822299f31d0ULL},
                              false,
                              0.0});
  return rng;
}

TEST(RandomTest, OneInMatchesUniformIntOnMultiplesOfTheBound) {
  // A random draw is almost never a multiple of a large bound, so the
  // keep verdicts there are tested on crafted draws: multiples of the
  // bound, their neighbours, and draws below the rejection threshold.
  Rng pick(91);
  std::vector<std::uint64_t> bounds = {1, 2, 3, 6, 10, 12, 1000,
                                       ~std::uint64_t{0}};
  for (int j = 1; j <= 63; ++j) {
    bounds.push_back(std::uint64_t{1} << j);
    bounds.push_back((std::uint64_t{1} << j) + 1);
    bounds.push_back(3 * (std::uint64_t{1} << (j - 1)));
  }
  for (int i = 0; i < 100; ++i) bounds.push_back(pick.Next() >> (i % 64));
  int kept = 0;
  for (const std::uint64_t bound : bounds) {
    if (bound == 0) continue;
    const OneIn keep(bound);
    const std::uint64_t top = ~std::uint64_t{0} / bound;
    for (const std::uint64_t m :
         {std::uint64_t{0}, std::uint64_t{1}, top, top - 1, top / 2,
          pick.UniformInt(top + (top == ~std::uint64_t{0} ? 0 : 1))}) {
      for (const std::uint64_t delta : {std::uint64_t{0}, std::uint64_t{1},
                                        ~std::uint64_t{0}}) {
        const std::uint64_t r = m * bound + delta;
        ASSERT_EQ(RngWhoseNextDrawIs(r).Next(), r);
        Rng a = RngWhoseNextDrawIs(r);
        Rng b = RngWhoseNextDrawIs(r);
        const bool verdict = keep(a);
        ASSERT_EQ(verdict, b.UniformInt(bound) == 0)
            << "bound " << bound << " draw " << r;
        ASSERT_EQ(a.Next(), b.Next()) << "bound " << bound << " draw " << r;
        kept += verdict ? 1 : 0;
      }
    }
  }
  EXPECT_GT(kept, 500);  // the crafted multiples really were kept
}

}  // namespace
}  // namespace ifsketch::util
