// Bit-level serialization.
//
// The paper measures sketches in *bits* (Definition 5). Every sketch in
// this library serializes itself through BitWriter so the reported space
// complexity |S| is an exact bit count of the encoded summary rather than
// an in-memory sizeof estimate.
#ifndef IFSKETCH_UTIL_BITIO_H_
#define IFSKETCH_UTIL_BITIO_H_

#include <cstdint>

#include "util/bitvector.h"
#include "util/check.h"

namespace ifsketch::util {

/// Appends fields to a growing bit string.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends a single bit.
  void WriteBit(bool b) {
    bits_.push_back(b);
  }

  /// Appends the low `width` bits of `value`, LSB first. width <= 64.
  void WriteUint(std::uint64_t value, int width);

  /// Appends an entire bit vector.
  void WriteBits(const BitVector& v);

  /// Appends a frequency in [0,1] quantized to `width` bits
  /// (resolution 2^-width, matching the log(1/eps) cost in Theorem 12).
  void WriteQuantized(double value, int width);

  /// Number of bits written so far.
  std::size_t BitCount() const { return bits_.size(); }

  /// The accumulated bit string.
  BitVector Finish() const;

 private:
  std::vector<bool> bits_;
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
