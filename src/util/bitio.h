// Bit-level serialization.
//
// The paper measures sketches in *bits* (Definition 5). Every sketch in
// this library serializes itself through BitWriter so the reported space
// complexity |S| is an exact bit count of the encoded summary rather than
// an in-memory sizeof estimate.
//
// The writer keeps the bit string in BitVector's own layout (bit i in
// word i/64 at position i%64, bits past the count zero) and appends
// whole words: a field of up to 64 bits is one or two shifted word
// writes, and Finish hands the words to the BitVector without copying.
// Exact bit accounting is a property of the format, not of writing one
// bit at a time.
#ifndef IFSKETCH_UTIL_BITIO_H_
#define IFSKETCH_UTIL_BITIO_H_

#include <cstdint>
#include <vector>

#include "util/bitvector.h"
#include "util/check.h"

namespace ifsketch::util {

/// Appends fields to a growing bit string.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends a single bit.
  void WriteBit(bool b) { WriteUint(b ? 1 : 0, 1); }

  /// Appends the low `width` bits of `value`, LSB first. width <= 64.
  void WriteUint(std::uint64_t value, int width) {
    IFSKETCH_CHECK(width >= 0 && width <= 64);
    if (width == 0) return;
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    const std::size_t shift = bits_ & 63;
    if (shift == 0) {
      words_.push_back(value);
    } else {
      words_.back() |= value << shift;
      if (shift + static_cast<std::size_t>(width) > 64) {
        words_.push_back(value >> (64 - shift));
      }
    }
    bits_ += static_cast<std::size_t>(width);
  }

  /// Appends an entire bit vector.
  void WriteBits(const BitVector& v);

  /// Appends a frequency in [0,1] quantized to `width` bits
  /// (resolution 2^-width, matching the log(1/eps) cost in Theorem 12).
  /// width <= 62: the scaled value must round within a signed 64-bit
  /// integer.
  void WriteQuantized(double value, int width);

  /// Number of bits written so far.
  std::size_t BitCount() const { return bits_; }

  /// The accumulated bit string. Hands the words over, leaving the
  /// writer empty.
  BitVector Finish();

 private:
  std::vector<std::uint64_t> words_;  // (bits_ + 63) / 64 words
  std::size_t bits_ = 0;
};

/// Sequentially consumes fields from a bit string written by BitWriter.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(&bits) {}

  bool ReadBit() {
    IFSKETCH_CHECK_LT(pos_, bits_->size());
    return bits_->Get(pos_++);
  }

  std::uint64_t ReadUint(int width);

  BitVector ReadBits(std::size_t count);

  /// Reads a WriteQuantized field. width <= 62, as there.
  double ReadQuantized(int width);

  /// Moves past `count` bits without decoding them (e.g. sample rows a
  /// caller decodes in bulk). Precondition: count <= Remaining().
  void Skip(std::size_t count);

  /// Bits consumed so far.
  std::size_t Position() const { return pos_; }

  /// Bits remaining.
  std::size_t Remaining() const { return bits_->size() - pos_; }

 private:
  const BitVector* bits_;
  std::size_t pos_ = 0;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_BITIO_H_
