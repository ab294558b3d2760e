#include "sketch/sketch_file.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "core/column_store.h"
#include "sketch/arena_layout.h"
#include "sketch/builtin_algorithms.h"
#include "util/crc32c.h"
#include "util/durable.h"

namespace ifsketch::sketch {
namespace {

using arena_internal::RoundUpToAlign;

template <typename T>
void PutRaw(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

void PutZeros(std::ostream& out, std::uint64_t count) {
  static constexpr char kZeros[arena::kSectionAlign] = {};
  while (count > 0) {
    const std::uint64_t chunk =
        count < sizeof(kZeros) ? count : sizeof(kZeros);
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
}

void PutWords(std::ostream& out, const std::uint64_t* words,
              std::uint64_t count) {
  if (count > 0) {
    out.write(reinterpret_cast<const char*>(words),
              static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  }
}

// Sequential reader that knows how far into the stream it is, so every
// validation failure can name the byte offset of the offending field.
class StreamCursor {
 public:
  StreamCursor(std::istream& in, SketchError* error)
      : in_(in), error_(error) {}

  std::uint64_t offset() const { return offset_; }

  /// CRC32C over every byte consumed so far. Snapshotted before the
  /// trailer itself is read, so it covers exactly the trailer's domain.
  std::uint32_t crc() const { return crc_; }

  /// Records a failure at `at` (a field-start offset) and returns false.
  bool Fail(std::uint64_t at, std::string message) {
    if (error_ != nullptr) {
      error_->message = std::move(message);
      error_->offset = at;
    }
    return false;
  }

  /// Reads `len` raw bytes; on a short read fails with "`what` truncated"
  /// at the field's start offset.
  bool Read(void* dst, std::uint64_t len, const char* what) {
    const std::uint64_t at = offset_;
    in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(len));
    if (static_cast<std::uint64_t>(in_.gcount()) != len) {
      return Fail(at, std::string(what) + ": file truncated");
    }
    crc_ = util::Crc32cExtend(crc_, dst, static_cast<std::size_t>(len));
    offset_ += len;
    return true;
  }

  template <typename T>
  bool Get(T& value, const char* what) {
    return Read(&value, sizeof(T), what);
  }

  /// True when the stream has no bytes left to consume.
  bool AtEnd() {
    return in_.peek() == std::char_traits<char>::eof();
  }

  /// Consumes `len` padding bytes, requiring them to be zero.
  bool SkipZeros(std::uint64_t len, const char* what) {
    char buffer[arena::kSectionAlign];
    while (len > 0) {
      const std::uint64_t at = offset_;
      const std::uint64_t chunk =
          len < sizeof(buffer) ? len : sizeof(buffer);
      if (!Read(buffer, chunk, what)) return false;
      for (std::uint64_t i = 0; i < chunk; ++i) {
        if (buffer[i] != 0) {
          return Fail(at + i, std::string(what) + ": nonzero padding byte");
        }
      }
      len -= chunk;
    }
    return true;
  }

 private:
  std::istream& in_;
  SketchError* error_;
  std::uint64_t offset_ = 0;
  std::uint32_t crc_ = 0;
};

// The v1 payload: bits packed LSB-first into bytes, read in bounded
// chunks so a corrupt bit count fails once the stream runs dry instead
// of attempting one giant allocation.
bool ReadLegacyPayload(StreamCursor& cursor, std::uint64_t bits,
                       util::BitVector* summary) {
  const std::uint64_t num_bytes = (bits + 7) / 8;
  std::vector<char> bytes;
  bytes.reserve(static_cast<std::size_t>(
      num_bytes < (std::uint64_t{1} << 20) ? num_bytes : (1 << 20)));
  constexpr std::uint64_t kChunk = 64 * 1024;
  char chunk[kChunk];
  for (std::uint64_t got = 0; got < num_bytes;) {
    const std::uint64_t want =
        num_bytes - got < kChunk ? num_bytes - got : kChunk;
    if (!cursor.Read(chunk, want, "summary payload")) return false;
    bytes.insert(bytes.end(), chunk, chunk + want);
    got += want;
  }
  util::BitVector out(static_cast<std::size_t>(bits));
  for (std::size_t i = 0; i < bits; ++i) {
    if ((bytes[i / 8] >> (i % 8)) & 1) out.Set(i, true);
  }
  *summary = std::move(out);
  return true;
}

// Reads and validates the v2 section table plus both section bodies.
// The copying path only keeps the summary; the column section, when
// present, is still consumed and structurally validated (tail bits and
// padding words zero) so both load paths accept exactly the same files.
bool ReadArenaBody(StreamCursor& cursor, std::uint64_t bits, std::size_t d,
                   util::BitVector* summary) {
  std::uint32_t section_count = 0;
  std::uint64_t count_at = 0;
  arena_internal::SectionEntry sections[arena::kMaxSections];
  if (!arena_internal::ReadSectionEntries(cursor, &section_count, &count_at,
                                          sections)) {
    return false;
  }
  // All structural decisions live in the shared validator, so the stream
  // parser and the image validator accept exactly the same tables.
  arena_internal::ArenaLayout layout;
  std::uint64_t fail_at = 0;
  const char* fail_message = nullptr;
  if (!arena_internal::ValidateSectionTable(sections, section_count,
                                            count_at, cursor.offset(), bits,
                                            d, &layout, &fail_at,
                                            &fail_message)) {
    return cursor.Fail(fail_at, fail_message);
  }

  // Summary section: exactly the BitVector word image of `bits` bits.
  const arena_internal::SectionEntry& summary_section = layout.summary;
  if (!cursor.SkipZeros(summary_section.offset - cursor.offset(),
                        "pre-section padding")) {
    return false;
  }
  std::vector<std::uint64_t> words;
  words.reserve(static_cast<std::size_t>(
      summary_section.words < (std::uint64_t{1} << 17)
          ? summary_section.words
          : (std::uint64_t{1} << 17)));
  constexpr std::uint64_t kChunkWords = 8 * 1024;
  std::uint64_t chunk[kChunkWords];
  for (std::uint64_t got = 0; got < summary_section.words;) {
    const std::uint64_t want = summary_section.words - got < kChunkWords
                                   ? summary_section.words - got
                                   : kChunkWords;
    if (!cursor.Read(chunk, want * 8, "summary words")) return false;
    words.insert(words.end(), chunk, chunk + want);
    got += want;
  }
  if ((bits & 63) != 0 && !words.empty() &&
      (words.back() >> (bits & 63)) != 0) {
    return cursor.Fail(summary_section.offset + (summary_section.words - 1) * 8,
                       "summary trailing bits not zero");
  }
  *summary = util::BitVector::AdoptWords(std::move(words),
                                         static_cast<std::size_t>(bits));

  // Optional column section: d columns of bits/d rows at an aligned
  // stride. Consumed one column at a time (memory stays bounded by one
  // column even for adversarial word counts).
  if (layout.has_columns) {
    const std::uint64_t rows = layout.rows;
    const std::uint64_t col_words = layout.col_words;
    const std::uint64_t stride = layout.stride;
    if (!cursor.SkipZeros(layout.columns.offset - cursor.offset(),
                          "pre-section padding")) {
      return false;
    }
    std::vector<std::uint64_t> column(static_cast<std::size_t>(stride));
    for (std::uint64_t j = 0; j < d; ++j) {
      const std::uint64_t column_at = cursor.offset();
      if (!cursor.Read(column.data(), stride * 8, "column words")) {
        return false;
      }
      if ((rows & 63) != 0 && (column[static_cast<std::size_t>(col_words) - 1]
                               >> (rows & 63)) != 0) {
        return cursor.Fail(column_at + (col_words - 1) * 8,
                           "column trailing bits not zero");
      }
      for (std::uint64_t w = col_words; w < stride; ++w) {
        if (column[static_cast<std::size_t>(w)] != 0) {
          return cursor.Fail(column_at + w * 8,
                             "nonzero column padding word");
        }
      }
    }
  }
  // Mirror the image validator's size rule, so the two parsers accept
  // exactly the same inputs (the bidirectional fuzz assertion in
  // sketch_view_test holds them to it): a v2 byte string ends exactly
  // where its section table says, OR exactly arena::kTrailerBytes later
  // with a valid integrity trailer over everything before it. v1 streams
  // keep their legacy trailing-byte tolerance.
  if (cursor.AtEnd()) return true;
  const std::uint64_t trailer_at = cursor.offset();
  const std::uint32_t body_crc = cursor.crc();  // before the trailer reads
  unsigned char trailer[arena::kTrailerBytes];
  if (!cursor.Read(trailer, arena::kTrailerBytes, "integrity trailer")) {
    return false;
  }
  if (!arena_internal::ValidateTrailer(trailer, trailer_at, body_crc,
                                       &fail_at, &fail_message)) {
    return cursor.Fail(fail_at, fail_message);
  }
  if (!cursor.AtEnd()) {
    return cursor.Fail(cursor.offset(),
                       "trailing bytes after integrity trailer");
  }
  return true;
}

// The trailer-less serialization shared by both WriteSketch modes.
bool WriteSketchBody(std::ostream& out, const SketchFile& file,
                     std::uint16_t version, ColumnSection columns) {
  // Refuse to emit a file ReadSketch would reject: nothing serializable
  // may be unloadable. The name length must fit its u16 header field.
  if (!core::ValidSketchParams(file.params)) return false;
  if (file.algorithm.size() > 0xffff) return false;
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    return false;
  }
  out.write(arena_internal::kMagic, 4);
  PutRaw<std::uint16_t>(out, version);
  PutRaw<std::uint16_t>(out,
                        static_cast<std::uint16_t>(file.algorithm.size()));
  out.write(file.algorithm.data(),
            static_cast<std::streamsize>(file.algorithm.size()));
  PutRaw<std::uint32_t>(out, static_cast<std::uint32_t>(file.params.k));
  PutRaw<double>(out, file.params.eps);
  PutRaw<double>(out, file.params.delta);
  PutRaw<std::uint8_t>(out, file.params.scope == core::Scope::kForAll ? 0
                                                                      : 1);
  PutRaw<std::uint8_t>(
      out, file.params.answer == core::Answer::kIndicator ? 0 : 1);
  PutRaw<std::uint64_t>(out, file.n);
  PutRaw<std::uint64_t>(out, file.d);
  const std::uint64_t bits = file.summary.size();
  PutRaw<std::uint64_t>(out, bits);

  if (version == arena::kVersionLegacy) {
    // Pack bits LSB-first into bytes.
    std::vector<char> bytes((file.summary.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < file.summary.size(); ++i) {
      if (file.summary.Get(i)) {
        bytes[i / 8] |= static_cast<char>(1 << (i % 8));
      }
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  } else {
    // Arena framing: aligned word sections behind an offset table. A
    // column section is framed only for algorithms whose whole payload
    // is one row-major sample -- that is what the mapped load path can
    // hand to ColumnStore::FromColumnWords verbatim.
    const std::uint64_t summary_words = (bits + 63) / 64;
    const auto algo = ResolveAlgorithm(file);
    const bool with_columns = columns == ColumnSection::kAuto &&
                              algo != nullptr &&
                              algo->HasRowMajorPayload(file.params) &&
                              file.d > 0 && bits > 0 && bits % file.d == 0;
    const std::uint64_t rows = with_columns ? bits / file.d : 0;
    const std::uint64_t stride =
        with_columns
            ? arena::ColumnStrideWords(static_cast<std::size_t>(rows))
            : 0;
    const std::uint32_t section_count = with_columns ? 2 : 1;

    const std::uint64_t header_end =
        4 + 2 + 2 + file.algorithm.size() + 4 + 8 + 8 + 1 + 1 + 8 + 8 + 8 +
        4 + section_count * arena::kSectionEntryBytes;
    const std::uint64_t summary_offset = RoundUpToAlign(header_end);
    const std::uint64_t columns_offset =
        RoundUpToAlign(summary_offset + summary_words * 8);

    PutRaw<std::uint32_t>(out, section_count);
    PutRaw<std::uint32_t>(out, arena::kSummaryWords);
    PutRaw<std::uint32_t>(out, 0);  // flags
    PutRaw<std::uint64_t>(out, summary_offset);
    PutRaw<std::uint64_t>(out, summary_words);
    if (with_columns) {
      PutRaw<std::uint32_t>(out, arena::kColumnWords);
      PutRaw<std::uint32_t>(out, 0);  // flags
      PutRaw<std::uint64_t>(out, columns_offset);
      PutRaw<std::uint64_t>(out, file.d * stride);
    }

    PutZeros(out, summary_offset - header_end);
    PutWords(out, file.summary.data(), summary_words);
    if (with_columns) {
      PutZeros(out, columns_offset - (summary_offset + summary_words * 8));
      const core::ColumnStore columns =
          core::ColumnStore::FromRowMajorBits(file.summary, file.d);
      for (std::size_t j = 0; j < file.d; ++j) {
        const util::BitVector& column = columns.Column(j);
        PutWords(out, column.data(), column.num_words());
        PutZeros(out, (stride - column.num_words()) * 8);
      }
    }
  }
  // Push everything through to the sink before reporting success: a full
  // disk often only surfaces at flush time, and returning true on a
  // short write would leave a truncated, unreadable .ifsk behind.
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

bool WriteSketch(std::ostream& out, const SketchFile& file,
                 std::uint16_t version, SketchChecksum checksum,
                 ColumnSection columns) {
  // v1 has no trailer slot, so a checksum request on a legacy file is
  // ignored rather than refused -- the caller's compatibility intent
  // (produce a v1 file) wins.
  if (checksum != SketchChecksum::kCrc32c ||
      version != arena::kVersionArena) {
    return WriteSketchBody(out, file, version, columns);
  }
  // Serialize to memory first: the trailer's CRC covers every body byte,
  // and buffering keeps this a single pass over the payload.
  std::ostringstream body(std::ios::binary);
  if (!WriteSketchBody(body, file, version, columns)) return false;
  const std::string bytes = body.str();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.write(arena::kTrailerMagic, 4);
  PutRaw<std::uint32_t>(out, arena::kChecksumCrc32c);
  PutRaw<std::uint64_t>(out, util::Crc32c(bytes.data(), bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

std::optional<SketchFile> ReadSketch(std::istream& in, SketchError* error) {
  StreamCursor cursor(in, error);
  std::uint16_t version = 0;
  if (!arena_internal::ReadMagicAndVersion(cursor, &version)) {
    return std::nullopt;
  }
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    cursor.Fail(arena_internal::kVersionOffset, "unsupported format version");
    return std::nullopt;
  }

  SketchFile file;
  std::uint64_t bits = 0;
  if (!arena_internal::ReadHeaderAfterVersion(cursor, &file, &bits)) {
    return std::nullopt;
  }
  file.version = version;
  const bool body_ok =
      version == arena::kVersionLegacy
          ? ReadLegacyPayload(cursor, bits, &file.summary)
          : ReadArenaBody(cursor, bits, file.d, &file.summary);
  if (!body_ok) return std::nullopt;
  return file;
}

bool SaveSketchFile(const std::string& path, const SketchFile& file,
                    std::uint16_t version, SketchChecksum checksum,
                    SketchError* error) {
  std::ostringstream out(std::ios::binary);
  if (!WriteSketch(out, file, version, checksum)) {
    if (error != nullptr) {
      error->message = "unserializable sketch (bad params, name, or version)";
      error->offset = 0;
    }
    return false;
  }
  const std::string bytes = out.str();
  std::string detail;
  if (!util::WriteFileAtomic(path, bytes.data(), bytes.size(), &detail)) {
    if (error != nullptr) {
      error->message = std::move(detail);
      error->offset = 0;
    }
    return false;
  }
  return true;
}

std::optional<SketchFile> LoadSketchFile(const std::string& path,
                                         SketchError* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      error->message = "cannot open file";
      error->offset = 0;
    }
    return std::nullopt;
  }
  return ReadSketch(in, error);
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
