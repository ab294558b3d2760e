#include "util/bitio.h"

#include <cmath>
#include <utility>

namespace ifsketch::util {
namespace {

// Widest quantized field: llround of value * (2^width - 1) must fit a
// long long, and at width 63 or 64 the product rounds to 2^63 or more.
constexpr int kMaxQuantizedWidth = 62;

std::uint64_t QuantizedScale(int width) {
  IFSKETCH_CHECK(width >= 0 && width <= kMaxQuantizedWidth);
  return (std::uint64_t{1} << width) - 1;
}

}  // namespace

void BitWriter::WriteBits(const BitVector& v) {
  const std::uint64_t* words = v.data();
  const std::size_t full = v.size() / 64;
  for (std::size_t i = 0; i < full; ++i) WriteUint(words[i], 64);
  const int tail = static_cast<int>(v.size() % 64);
  if (tail != 0) WriteUint(words[full], tail);
}

void BitWriter::WriteQuantized(double value, int width) {
  IFSKETCH_CHECK(value >= 0.0 && value <= 1.0);
  const std::uint64_t scale = QuantizedScale(width);
  const auto q =
      static_cast<std::uint64_t>(std::llround(value * static_cast<double>(scale)));
  WriteUint(q > scale ? scale : q, width);
}

BitVector BitWriter::Finish() {
  const std::size_t bits = std::exchange(bits_, 0);
  return BitVector::AdoptWords(std::exchange(words_, {}), bits);
}

std::uint64_t BitReader::ReadUint(int width) {
  IFSKETCH_CHECK(width >= 0 && width <= 64);
  IFSKETCH_CHECK_LE(static_cast<std::size_t>(width), Remaining());
  pos_ += static_cast<std::size_t>(width);
  return bits_->GetBits(pos_ - width, width);
}

BitVector BitReader::ReadBits(std::size_t count) {
  BitVector out = bits_->Slice(pos_, count);
  pos_ += count;
  return out;
}

void BitReader::Skip(std::size_t count) {
  IFSKETCH_CHECK_LE(count, Remaining());
  pos_ += count;
}

double BitReader::ReadQuantized(int width) {
  const std::uint64_t scale = QuantizedScale(width);
  return static_cast<double>(ReadUint(width)) / static_cast<double>(scale);
}

}  // namespace ifsketch::util
