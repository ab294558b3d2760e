#include "sketch/sketch_file.h"

#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>

#include "core/column_store.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_view.h"
#include "util/crc32c.h"
#include "util/durable.h"
#include "util/mapped_file.h"

namespace ifsketch::sketch {
namespace {

using arena::RoundUpToAlign;

template <typename T>
void Append(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// The header fields both versions share, magic through summary bit
/// count. Refuses what the parser would reject -- nothing serializable
/// may be unloadable: invalid params, or a name too long for its u16
/// length field.
bool AppendHeader(std::string* out, const SketchFile& file,
                  std::uint16_t version) {
  if (!core::ValidSketchParams(file.params)) return false;
  if (file.algorithm.size() > 0xffff) return false;
  out->append(arena::kMagic, 4);
  Append<std::uint16_t>(out, version);
  Append<std::uint16_t>(out,
                        static_cast<std::uint16_t>(file.algorithm.size()));
  out->append(file.algorithm);
  Append<std::uint32_t>(out, static_cast<std::uint32_t>(file.params.k));
  Append<double>(out, file.params.eps);
  Append<double>(out, file.params.delta);
  Append<std::uint8_t>(out,
                       file.params.scope == core::Scope::kForAll ? 0 : 1);
  Append<std::uint8_t>(out,
                       file.params.answer == core::Answer::kIndicator ? 0
                                                                      : 1);
  Append<std::uint64_t>(out, file.n);
  Append<std::uint64_t>(out, file.d);
  Append<std::uint64_t>(out, file.summary.size());
  return true;
}

void AppendSection(std::string* out, std::uint32_t kind,
                   std::uint64_t offset, std::uint64_t words) {
  Append<std::uint32_t>(out, kind);
  Append<std::uint32_t>(out, 0);  // flags
  Append<std::uint64_t>(out, offset);
  Append<std::uint64_t>(out, words);
}

/// The file bytes at `version`: the v2 image, or the legacy v1 framing
/// (header, then the payload bits packed LSB-first into bytes -- the
/// little-endian word layout, so one copy). nullptr when unserializable.
std::shared_ptr<const util::MappedFile> Serialize(const SketchFile& file,
                                                  std::uint16_t version,
                                                  SketchChecksum checksum,
                                                  ColumnSection columns) {
  if (version == arena::kVersionArena) {
    return WriteSketchImage(file, checksum, columns);
  }
  std::string bytes;
  if (version != arena::kVersionLegacy ||
      !AppendHeader(&bytes, file, version)) {
    return nullptr;
  }
  bytes.append(reinterpret_cast<const char*>(file.summary.data()),
               (file.summary.size() + 7) / 8);
  return util::MappedFile::FromBytes(bytes.data(), bytes.size());
}

/// Runs the image parser and hands back an owned file: a v2 summary is
/// deep-copied out of the image (the column section is dropped), a v1
/// summary is already owned.
std::optional<SketchFile> ParseOwned(
    std::shared_ptr<const util::MappedFile> image, SketchError* error) {
  auto view = ViewSketchImage(std::move(image), error);
  if (!view.has_value()) return std::nullopt;
  SketchFile file = std::move(view->file);
  if (file.summary.is_view()) file.summary = util::BitVector(file.summary);
  return file;
}

}  // namespace

std::shared_ptr<const util::MappedFile> WriteSketchImage(
    const SketchFile& file, SketchChecksum checksum, ColumnSection columns) {
  std::string header;
  if (!AppendHeader(&header, file, arena::kVersionArena)) return nullptr;
  // A column section is framed only for algorithms whose whole payload
  // is one row-major sample -- what ColumnStore::FromColumnWords can
  // adopt verbatim.
  const std::uint64_t bits = file.summary.size();
  const std::uint64_t summary_words = (bits + 63) / 64;
  const auto algo =
      columns == ColumnSection::kAuto ? ResolveAlgorithm(file) : nullptr;
  const bool with_columns = algo != nullptr &&
                            algo->HasRowMajorPayload(file.params) &&
                            file.d > 0 && bits > 0 && bits % file.d == 0;
  const std::uint64_t stride =
      with_columns ? arena::ColumnStrideWords(
                         static_cast<std::size_t>(bits / file.d))
                   : 0;
  const std::uint32_t section_count = with_columns ? 2 : 1;

  Append<std::uint32_t>(&header, section_count);
  const std::uint64_t summary_offset = RoundUpToAlign(
      header.size() + section_count * arena::kSectionEntryBytes);
  const std::uint64_t columns_offset =
      RoundUpToAlign(summary_offset + summary_words * 8);
  AppendSection(&header, arena::kSummaryWords, summary_offset,
                summary_words);
  if (with_columns) {
    AppendSection(&header, arena::kColumnWords, columns_offset,
                  file.d * stride);
  }
  const std::uint64_t end = with_columns
                                ? columns_offset + file.d * stride * 8
                                : summary_offset + summary_words * 8;
  const bool trailer = checksum == SketchChecksum::kCrc32c;

  // The image arrives zero-filled, so padding needs no writes.
  auto image = util::MappedFile::Allocate(static_cast<std::size_t>(
      end + (trailer ? arena::kTrailerBytes : 0)));
  unsigned char* bytes = image->mutable_data();
  std::memcpy(bytes, header.data(), header.size());
  if (summary_words > 0) {
    std::memcpy(bytes + summary_offset, file.summary.data(),
                static_cast<std::size_t>(summary_words * 8));
  }
  if (with_columns) {
    core::ColumnStore::TransposeRowMajorBits(
        file.summary, file.d,
        reinterpret_cast<std::uint64_t*>(bytes + columns_offset),
        static_cast<std::size_t>(stride));
  }
  if (trailer) {
    const std::uint32_t kind = arena::kChecksumCrc32c;
    const std::uint64_t crc =
        util::Crc32c(bytes, static_cast<std::size_t>(end));
    std::memcpy(bytes + end, arena::kTrailerMagic, 4);
    std::memcpy(bytes + end + 4, &kind, sizeof(kind));
    std::memcpy(bytes + end + 8, &crc, sizeof(crc));
  }
  return image;
}

bool WriteSketch(std::ostream& out, const SketchFile& file,
                 std::uint16_t version, SketchChecksum checksum,
                 ColumnSection columns) {
  const auto bytes = Serialize(file, version, checksum, columns);
  if (bytes == nullptr) return false;
  out.write(reinterpret_cast<const char*>(bytes->data()),
            static_cast<std::streamsize>(bytes->size()));
  // Push everything through to the sink before reporting success: a full
  // disk often only surfaces at flush time, and returning true on a
  // short write would leave a truncated, unreadable .ifsk behind.
  out.flush();
  return static_cast<bool>(out);
}

std::optional<SketchFile> ReadSketch(std::istream& in, SketchError* error) {
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  return ParseOwned(util::MappedFile::FromBytes(bytes.data(), bytes.size()),
                    error);
}

bool SaveSketchFile(const std::string& path, const SketchFile& file,
                    std::uint16_t version, SketchChecksum checksum,
                    SketchError* error) {
  const auto bytes =
      Serialize(file, version, checksum, ColumnSection::kAuto);
  std::string detail = "unserializable sketch (bad params, name, or version)";
  if (bytes != nullptr &&
      util::WriteFileAtomic(path, bytes->data(), bytes->size(), &detail)) {
    return true;
  }
  if (error != nullptr) {
    error->message = std::move(detail);
    error->offset = 0;
  }
  return false;
}

std::optional<SketchFile> LoadSketchFile(const std::string& path,
                                         SketchError* error) {
  std::string open_error;
  auto image = util::MappedFile::OpenBuffered(path, &open_error);
  if (image == nullptr) {
    if (error != nullptr) {
      error->message = std::move(open_error);
      error->offset = 0;
    }
    return std::nullopt;
  }
  return ParseOwned(std::move(image), error);
}

std::unique_ptr<core::SketchAlgorithm> ResolveAlgorithm(
    const SketchFile& file) {
  return BuiltinRegistry().Create(file.algorithm);
}

std::unique_ptr<core::FrequencyEstimator> LoadEstimator(
    const SketchFile& file) {
  const auto algo = ResolveAlgorithm(file);
  if (algo == nullptr) return nullptr;
  return algo->LoadEstimator(file.summary, file.params, file.d, file.n);
}

std::unique_ptr<core::FrequencyIndicator> LoadIndicator(
    const SketchFile& file) {
  const auto algo = ResolveAlgorithm(file);
  if (algo == nullptr) return nullptr;
  return algo->LoadIndicator(file.summary, file.params, file.d, file.n);
}

}  // namespace ifsketch::sketch
