#include "util/bitio.h"

#include <cmath>

namespace ifsketch::util {

void BitWriter::WriteUint(std::uint64_t value, int width) {
  IFSKETCH_CHECK(width >= 0 && width <= 64);
  for (int i = 0; i < width; ++i) {
    bits_.push_back((value >> i) & 1u);
  }
}

void BitWriter::WriteBits(const BitVector& v) {
  for (std::size_t i = 0; i < v.size(); ++i) bits_.push_back(v.Get(i));
}

void BitWriter::WriteQuantized(double value, int width) {
  IFSKETCH_CHECK(value >= 0.0 && value <= 1.0);
  const std::uint64_t scale = (width >= 64) ? ~std::uint64_t{0}
                                            : ((std::uint64_t{1} << width) - 1);
  const auto q =
      static_cast<std::uint64_t>(std::llround(value * static_cast<double>(scale)));
  WriteUint(q > scale ? scale : q, width);
}

BitVector BitWriter::Finish() const {
  BitVector out(bits_.size());
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    if (bits_[i]) out.Set(i, true);
  }
  return out;
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
  const std::uint64_t scale = (width >= 64) ? ~std::uint64_t{0}
                                            : ((std::uint64_t{1} << width) - 1);
  return static_cast<double>(ReadUint(width)) / static_cast<double>(scale);
}

}  // namespace ifsketch::util
