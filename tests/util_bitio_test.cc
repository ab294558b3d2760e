#include "util/bitio.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace ifsketch::util {
namespace {

TEST(BitIoTest, EmptyWriterYieldsEmptyVector) {
  BitWriter w;
  EXPECT_EQ(w.BitCount(), 0u);
  EXPECT_EQ(w.Finish().size(), 0u);
}

TEST(BitIoTest, SingleBitsRoundTrip) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBit(true);
  const BitVector bits = w.Finish();
  BitReader r2(bits);
  EXPECT_TRUE(r2.ReadBit());
  EXPECT_FALSE(r2.ReadBit());
  EXPECT_TRUE(r2.ReadBit());
  EXPECT_EQ(r2.Remaining(), 0u);
}

TEST(BitIoTest, UintRoundTripVariousWidths) {
  BitWriter w;
  w.WriteUint(0, 1);
  w.WriteUint(1, 1);
  w.WriteUint(5, 3);
  w.WriteUint(1023, 10);
  w.WriteUint(0xdeadbeefcafef00dULL, 64);
  const BitVector bits = w.Finish();
  EXPECT_EQ(bits.size(), 1u + 1 + 3 + 10 + 64);
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(1), 0u);
  EXPECT_EQ(r.ReadUint(1), 1u);
  EXPECT_EQ(r.ReadUint(3), 5u);
  EXPECT_EQ(r.ReadUint(10), 1023u);
  EXPECT_EQ(r.ReadUint(64), 0xdeadbeefcafef00dULL);
}

TEST(BitIoTest, WriteBitsRoundTrip) {
  Rng rng(3);
  const BitVector payload = rng.RandomBits(137);
  BitWriter w;
  w.WriteUint(42, 7);
  w.WriteBits(payload);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  EXPECT_EQ(r.ReadUint(7), 42u);
  EXPECT_EQ(r.ReadBits(137), payload);
}

TEST(BitIoTest, QuantizedFrequencyWithinResolution) {
  for (const double f : {0.0, 0.1, 0.25, 0.333, 0.5, 0.9, 1.0}) {
    for (const int width : {4, 8, 16, 24}) {
      BitWriter w;
      w.WriteQuantized(f, width);
      const BitVector bits = w.Finish();
      BitReader r(bits);
      const double back = r.ReadQuantized(width);
      const double resolution = 1.0 / ((1ull << width) - 1);
      EXPECT_NEAR(back, f, resolution) << "f=" << f << " width=" << width;
    }
  }
}

TEST(BitIoTest, BitCountTracksWrites) {
  BitWriter w;
  w.WriteBit(true);
  EXPECT_EQ(w.BitCount(), 1u);
  w.WriteUint(0, 13);
  EXPECT_EQ(w.BitCount(), 14u);
  w.WriteQuantized(0.5, 8);
  EXPECT_EQ(w.BitCount(), 22u);
}

TEST(BitIoTest, ReaderPositionAdvances) {
  BitWriter w;
  w.WriteUint(99, 20);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  EXPECT_EQ(r.Position(), 0u);
  r.ReadUint(5);
  EXPECT_EQ(r.Position(), 5u);
  EXPECT_EQ(r.Remaining(), 15u);
}

TEST(BitIoTest, RandomizedMixedRoundTrip) {
  Rng rng(17);
  for (int trial = 0; trial < 25; ++trial) {
    BitWriter w;
    std::vector<std::uint64_t> values;
    std::vector<int> widths;
    const int fields = 1 + static_cast<int>(rng.UniformInt(20));
    for (int f = 0; f < fields; ++f) {
      const int width = 1 + static_cast<int>(rng.UniformInt(63));
      const std::uint64_t value =
          rng.Next() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
      w.WriteUint(value, width);
      values.push_back(value);
      widths.push_back(width);
    }
    const BitVector bits = w.Finish();
    BitReader r(bits);
    for (int f = 0; f < fields; ++f) {
      EXPECT_EQ(r.ReadUint(widths[f]), values[f]);
    }
    EXPECT_EQ(r.Remaining(), 0u);
  }
}

TEST(BitIoTest, SkipMovesPastFieldsWithoutDecoding) {
  BitWriter w;
  w.WriteUint(0x5, 3);
  w.WriteUint(0xdeadbeefcafef00dULL, 64);
  w.WriteUint(0x2a, 7);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  r.Skip(3);
  EXPECT_EQ(r.Position(), 3u);
  r.Skip(64);
  EXPECT_EQ(r.ReadUint(7), 0x2au);
  EXPECT_EQ(r.Remaining(), 0u);
  r.Skip(0);
  EXPECT_DEATH(r.Skip(1), "");
}

}  // namespace
}  // namespace ifsketch::util
