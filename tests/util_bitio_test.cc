#include "util/bitio.h"

#include <gtest/gtest.h>

#include <vector>

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

// The pre-word-level writer, one bit per call: the reference the word
// writer must match bit for bit.
class BitAtATimeWriter {
 public:
  void WriteUint(std::uint64_t value, int width) {
    for (int i = 0; i < width; ++i) bits_.push_back((value >> i) & 1u);
  }
  void WriteBits(const BitVector& v) {
    for (std::size_t i = 0; i < v.size(); ++i) bits_.push_back(v.Get(i));
  }
  BitVector Finish() const {
    BitVector out(bits_.size());
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i]) out.Set(i, true);
    }
    return out;
  }

 private:
  std::vector<bool> bits_;
};

// Bits past the count in the last word must be zero: word kernels and
// operator== compare whole words.
void ExpectZeroTail(const BitVector& bits) {
  const std::size_t tail = bits.size() % 64;
  if (tail == 0) return;
  EXPECT_EQ(bits.data()[bits.num_words() - 1] >> tail, 0u)
      << "tail bits set at size " << bits.size();
}

TEST(BitIoTest, WordWriterMatchesBitAtATimeUintAtEveryOffset) {
  Rng rng(23);
  for (int offset = 0; offset < 64; ++offset) {
    for (int width = 0; width <= 64; ++width) {
      const std::uint64_t lead = rng.Next();
      // All ones above the field too: only the low `width` bits count.
      const std::uint64_t value = width % 3 == 0 ? ~0ull : rng.Next();
      BitWriter w;
      BitAtATimeWriter ref;
      w.WriteUint(lead, offset);
      ref.WriteUint(lead, offset);
      w.WriteUint(value, width);
      ref.WriteUint(value, width);
      w.WriteUint(0x5, 3);  // a field after it lands where it should
      ref.WriteUint(0x5, 3);
      EXPECT_EQ(w.BitCount(), static_cast<std::size_t>(offset + width + 3));
      const BitVector got = w.Finish();
      ASSERT_EQ(got, ref.Finish()) << "offset " << offset << " width " << width;
      ExpectZeroTail(got);
    }
  }
}

TEST(BitIoTest, WordWriterMatchesBitAtATimeBitsAtEveryOffset) {
  Rng rng(29);
  for (int offset = 0; offset < 64; ++offset) {
    for (std::size_t length = 0; length <= 130; ++length) {
      const BitVector payload = rng.RandomBits(length);
      const std::uint64_t lead = rng.Next();
      BitWriter w;
      BitAtATimeWriter ref;
      w.WriteUint(lead, offset);
      ref.WriteUint(lead, offset);
      w.WriteBits(payload);
      ref.WriteBits(payload);
      EXPECT_EQ(w.BitCount(), offset + length);
      const BitVector got = w.Finish();
      ASSERT_EQ(got, ref.Finish())
          << "offset " << offset << " length " << length;
      ExpectZeroTail(got);
    }
  }
}

TEST(BitIoTest, FinishEmptiesTheWriter) {
  BitWriter w;
  w.WriteUint(0x3ff, 10);
  EXPECT_EQ(w.Finish().size(), 10u);
  EXPECT_EQ(w.BitCount(), 0u);
  w.WriteBit(true);
  EXPECT_EQ(w.Finish(), BitVector::FromString("1"));
}

TEST(BitIoTest, QuantizedWidthsAbove62Refused) {
  // At 63 and 64 bits, llround(value * scale) overflows a long long
  // (0.75 and 1.0 at width 64 both used to read back as 0.5).
  for (const int width : {63, 64}) {
    BitWriter w;
    EXPECT_DEATH(w.WriteQuantized(0.75, width), "");
    const BitVector bits(64);
    BitReader r(bits);
    EXPECT_DEATH(r.ReadQuantized(width), "");
  }
  BitWriter w;
  w.WriteQuantized(1.0, 62);
  w.WriteQuantized(0.75, 62);
  const BitVector bits = w.Finish();
  BitReader r(bits);
  EXPECT_EQ(r.ReadQuantized(62), 1.0);
  EXPECT_EQ(r.ReadQuantized(62), 0.75);
}

}  // namespace
}  // namespace ifsketch::util
