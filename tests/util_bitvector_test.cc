#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ifsketch::util {
namespace {

TEST(BitVectorTest, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.Count(), 0u);
}

TEST(BitVectorTest, ConstructedZeroed) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.Count(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.Get(i));
}

TEST(BitVectorTest, SetAndGetAcrossWordBoundaries) {
  BitVector v(200);
  for (std::size_t i : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 199u}) {
    v.Set(i, true);
    EXPECT_TRUE(v.Get(i)) << i;
  }
  EXPECT_EQ(v.Count(), 8u);
  v.Set(64, false);
  EXPECT_FALSE(v.Get(64));
  EXPECT_EQ(v.Count(), 7u);
}

TEST(BitVectorTest, FlipTogglesBit) {
  BitVector v(70);
  v.Flip(69);
  EXPECT_TRUE(v.Get(69));
  v.Flip(69);
  EXPECT_FALSE(v.Get(69));
}

TEST(BitVectorTest, ClearZeroesEverything) {
  BitVector v = BitVector::FromString("11111111");
  v.Clear();
  EXPECT_EQ(v.Count(), 0u);
  EXPECT_EQ(v.size(), 8u);
}

TEST(BitVectorTest, FromStringRoundTrip) {
  const std::string s = "1010011101";
  BitVector v = BitVector::FromString(s);
  EXPECT_EQ(v.ToString(), s);
  EXPECT_EQ(v.Count(), 6u);
}

TEST(BitVectorTest, ContainsSubsetSemantics) {
  const BitVector big = BitVector::FromString("11011");
  EXPECT_TRUE(big.Contains(BitVector::FromString("10010")));
  EXPECT_TRUE(big.Contains(BitVector::FromString("00000")));
  EXPECT_TRUE(big.Contains(big));
  EXPECT_FALSE(big.Contains(BitVector::FromString("00100")));
}

TEST(BitVectorTest, HammingDistance) {
  const BitVector a = BitVector::FromString("110010");
  const BitVector b = BitVector::FromString("011010");
  EXPECT_EQ(a.HammingDistance(b), 2u);
  EXPECT_EQ(a.HammingDistance(a), 0u);
}

TEST(BitVectorTest, AndCountIsIntersectionSize) {
  const BitVector a = BitVector::FromString("11100");
  const BitVector b = BitVector::FromString("01110");
  EXPECT_EQ(a.AndCount(b), 2u);
}

TEST(BitVectorTest, BitwiseOperators) {
  const BitVector a = BitVector::FromString("1100");
  const BitVector b = BitVector::FromString("1010");
  EXPECT_EQ((a & b).ToString(), "1000");
  EXPECT_EQ((a | b).ToString(), "1110");
  EXPECT_EQ((a ^ b).ToString(), "0110");
}

TEST(BitVectorTest, EqualityRequiresSizeAndContent) {
  EXPECT_EQ(BitVector::FromString("101"), BitVector::FromString("101"));
  EXPECT_FALSE(BitVector::FromString("101") == BitVector::FromString("1010"));
  EXPECT_FALSE(BitVector::FromString("101") == BitVector::FromString("100"));
}

TEST(BitVectorTest, ConcatPreservesBothParts) {
  const BitVector a = BitVector::FromString("101");
  const BitVector b = BitVector::FromString("0110");
  EXPECT_EQ(a.Concat(b).ToString(), "1010110");
}

TEST(BitVectorTest, SliceExtractsRange) {
  const BitVector v = BitVector::FromString("110101101");
  EXPECT_EQ(v.Slice(2, 4).ToString(), "0101");
  EXPECT_EQ(v.Slice(0, 9).ToString(), "110101101");
  EXPECT_EQ(v.Slice(8, 1).ToString(), "1");
  EXPECT_EQ(v.Slice(3, 0).size(), 0u);
}

// Slice and GetBits work a word at a time; every offset and length
// (across word boundaries, at the very end) must equal the bit loop.
TEST(BitVectorTest, SliceAndGetBitsMatchBitLoopAtEveryOffset) {
  Rng rng(5);
  const BitVector v = rng.RandomBits(300);
  for (std::size_t begin = 0; begin <= v.size(); begin += 7) {
    for (std::size_t len = 0; begin + len <= v.size(); len += 13) {
      BitVector expected(len);
      for (std::size_t i = 0; i < len; ++i) expected.Set(i, v.Get(begin + i));
      ASSERT_EQ(v.Slice(begin, len), expected) << begin << "+" << len;
      if (len <= 64) {
        ASSERT_EQ(v.GetBits(begin, len),
                  len == 0 ? 0u : expected.data()[0])
            << begin << "+" << len;
      }
    }
    if (begin + 64 <= v.size()) {
      std::uint64_t expected = 0;
      for (std::size_t i = 0; i < 64; ++i) {
        expected |= static_cast<std::uint64_t>(v.Get(begin + i)) << i;
      }
      ASSERT_EQ(v.GetBits(begin, 64), expected) << begin;
    }
  }
}

TEST(BitVectorTest, SetBitsListsAscendingIndices) {
  BitVector v(150);
  v.Set(3, true);
  v.Set(64, true);
  v.Set(149, true);
  const std::vector<std::size_t> expected = {3, 64, 149};
  EXPECT_EQ(v.SetBits(), expected);
}

TEST(BitVectorTest, ConcatSliceRoundTripRandom) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t la = rng.UniformInt(100);
    const std::size_t lb = rng.UniformInt(100);
    const BitVector a = rng.RandomBits(la);
    const BitVector b = rng.RandomBits(lb);
    const BitVector joined = a.Concat(b);
    EXPECT_EQ(joined.Slice(0, la), a);
    EXPECT_EQ(joined.Slice(la, lb), b);
  }
}

TEST(BitVectorTest, CountMatchesSetBitsSizeRandom) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVector v = rng.RandomBits(1 + rng.UniformInt(300));
    EXPECT_EQ(v.Count(), v.SetBits().size());
  }
}

TEST(BitVectorTest, AndCountManySingleOperandIsCount) {
  Rng rng(17);
  const BitVector v = rng.RandomBits(203);
  const BitVector* ops[1] = {&v};
  EXPECT_EQ(BitVector::AndCountMany(ops, 1), v.Count());
}

TEST(BitVectorTest, AndCountManyFoldEquivalenceRandom) {
  Rng rng(19);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t bits = rng.UniformInt(300);
    const BitVector a = rng.RandomBits(bits);
    const BitVector b = rng.RandomBits(bits);
    const BitVector c = rng.RandomBits(bits);
    BitVector folded = a;
    folded &= b;
    folded &= c;
    EXPECT_EQ(BitVector::AndCountMany({&a, &b, &c}), folded.Count());
  }
}

// Zero-bit vectors are valid operands everywhere: no kernel may touch
// the (possibly null) word pointer when there are no words.
TEST(BitVectorTest, ZeroBitOperandsAreValid) {
  const BitVector a(0);
  const BitVector b(0);
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.AndCount(b), 0u);
  EXPECT_EQ(BitVector::AndCountMany({&a, &b}), 0u);
  BitVector acc = a;
  acc &= b;
  EXPECT_EQ(acc, a);
}

// An empty operand *list* has no defined AND width; it must abort, not
// read through a null operand array.
TEST(BitVectorDeathTest, AndCountManyEmptyOperandListAborts) {
  const std::vector<const BitVector*> none;
  EXPECT_DEATH(BitVector::AndCountMany(none), "");
}

TEST(BitVectorTest, XorSelfIsZeroRandom) {
  Rng rng(13);
  const BitVector v = rng.RandomBits(257);
  EXPECT_EQ((v ^ v).Count(), 0u);
  EXPECT_EQ(v.HammingDistance(v), 0u);
}

// ---- views: borrowed words must answer every const query exactly like
// an owning vector of the same bits (the zero-copy load path depends on
// this equivalence, at every word count including partial tail words).

TEST(BitVectorViewTest, ViewAnswersLikeOwnedAtEveryLength) {
  Rng rng(99);
  for (const std::size_t bits : {0u, 1u, 63u, 64u, 65u, 128u, 257u, 1000u}) {
    const BitVector owned = rng.RandomBits(bits);
    const BitVector view = BitVector::View(owned.data(), bits);
    ASSERT_TRUE(view.is_view());
    ASSERT_EQ(view.size(), bits);
    EXPECT_EQ(view.Count(), owned.Count());
    EXPECT_EQ(view, owned);
    EXPECT_EQ(owned, view);
    for (std::size_t i = 0; i < bits; ++i) {
      ASSERT_EQ(view.Get(i), owned.Get(i)) << i;
    }
    const BitVector other = rng.RandomBits(bits);
    EXPECT_EQ(view.AndCount(other), owned.AndCount(other));
    EXPECT_EQ(view.HammingDistance(other), owned.HammingDistance(other));
    EXPECT_EQ(view.SetBits(), owned.SetBits());
    const std::vector<const BitVector*> operands = {&view, &other};
    const std::vector<const BitVector*> operands_owned = {&owned, &other};
    EXPECT_EQ(BitVector::AndCountMany(operands),
              BitVector::AndCountMany(operands_owned));
  }
}

TEST(BitVectorViewTest, CopyingAViewMaterializesAnIndependentOwner) {
  Rng rng(7);
  BitVector owned = rng.RandomBits(300);
  const BitVector view = BitVector::View(owned.data(), 300);

  BitVector copy = view;  // deep copy, no longer borrows
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy, owned);
  EXPECT_NE(copy.data(), view.data());

  // Mutating the copy is legal and leaves the viewed storage untouched.
  const bool bit = copy.Get(5);
  copy.Flip(5);
  EXPECT_EQ(owned.Get(5), bit);

  // Copy-assignment materializes too (the CountRange prefix pattern:
  // `prefix = columns[a]; prefix &= columns[b];` must work when the
  // columns are borrowed views).
  BitVector prefix;
  prefix = view;
  prefix &= owned;
  EXPECT_EQ(prefix, owned);
}

TEST(BitVectorViewTest, MoveKeepsBorrowedWordsAlive) {
  Rng rng(21);
  const BitVector owned = rng.RandomBits(150);
  BitVector view = BitVector::View(owned.data(), 150);
  const BitVector moved = std::move(view);
  EXPECT_TRUE(moved.is_view());
  EXPECT_EQ(moved, owned);
}

TEST(BitVectorViewDeathTest, MutatingAViewAborts) {
  const BitVector owned(128);
  BitVector view = BitVector::View(owned.data(), 128);
  EXPECT_DEATH(view.Set(3, true), "");
  EXPECT_DEATH(view.Flip(3), "");
  EXPECT_DEATH(view.Clear(), "");
  BitVector other(128);
  EXPECT_DEATH(view &= other, "");
}

}  // namespace
}  // namespace ifsketch::util
