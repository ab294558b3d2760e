#include "sketch/sketch_view.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace ifsketch::sketch {
namespace {

/// Byte offset of the u16 version field (right after the magic).
constexpr std::uint64_t kVersionOffset = 4;

// Word counts are later multiplied by 8 and added to offsets; this cap
// (far above any real sketch) keeps all of that arithmetic overflow-free.
constexpr std::uint64_t kMaxSectionWords = std::uint64_t{1} << 58;

// Bounds-checked forward reader over the image. Fields are read by
// memcpy at a running offset, so validation never forms an unaligned or
// out-of-bounds pointer; every failure names the byte offset of the
// offending field.
class ImageCursor {
 public:
  ImageCursor(const util::MappedFile& image, SketchError* error)
      : data_(image.data()), size_(image.size()), error_(error) {}

  std::uint64_t offset() const { return offset_; }
  std::uint64_t size() const { return size_; }

  /// Records a failure at `at` (a field-start offset) and returns false.
  bool Fail(std::uint64_t at, std::string message) {
    if (error_ != nullptr) {
      error_->message = std::move(message);
      error_->offset = at;
    }
    return false;
  }

  bool Read(void* dst, std::uint64_t len, const char* what) {
    if (len > size_ - offset_) {  // offset_ <= size_ is an invariant
      return Fail(offset_, std::string(what) + ": image truncated");
    }
    if (len > 0) std::memcpy(dst, data_ + offset_, len);
    offset_ += len;
    return true;
  }

  template <typename T>
  bool Get(T& value, const char* what) {
    return Read(&value, sizeof(T), what);
  }

  /// Advances past `len` bytes without copying them (for payloads that
  /// are validated or adopted in place via BytesAt/WordsAt).
  bool Advance(std::uint64_t len, const char* what) {
    if (len > size_ - offset_) {
      return Fail(offset_, std::string(what) + ": image truncated");
    }
    offset_ += len;
    return true;
  }

  bool SkipZeros(std::uint64_t len, const char* what) {
    const std::uint64_t at = offset_;
    if (len > size_ - offset_) {
      return Fail(at, std::string(what) + ": image truncated");
    }
    for (std::uint64_t i = 0; i < len; ++i) {
      if (data_[at + i] != 0) {
        return Fail(at + i, std::string(what) + ": nonzero padding byte");
      }
    }
    offset_ += len;
    return true;
  }

  const unsigned char* BytesAt(std::uint64_t offset) const {
    return data_ + offset;
  }

  /// The word pointer at `offset`, which validation has already required
  /// to be a multiple of arena::kSectionAlign -- aligned, because
  /// MappedFile images start 64-byte aligned.
  const std::uint64_t* WordsAt(std::uint64_t offset) const {
    return reinterpret_cast<const std::uint64_t*>(data_ + offset);
  }

 private:
  const unsigned char* data_;
  std::uint64_t size_;
  SketchError* error_;
  std::uint64_t offset_ = 0;
};

/// Reads and validates every header field, magic through summary bit
/// count, filling `file` (summary excepted) and `bits`.
bool ReadHeader(ImageCursor& cursor, SketchFile* file, std::uint64_t* bits) {
  char magic[4];
  if (!cursor.Read(magic, 4, "magic")) return false;
  if (std::memcmp(magic, arena::kMagic, 4) != 0) {
    return cursor.Fail(0, "bad magic (not an IFSK sketch file)");
  }
  std::uint16_t version = 0;
  if (!cursor.Get(version, "version")) return false;
  if (version != arena::kVersionLegacy && version != arena::kVersionArena) {
    return cursor.Fail(kVersionOffset, "unsupported format version");
  }
  file->version = version;

  std::uint16_t name_len = 0;
  if (!cursor.Get(name_len, "algorithm name length")) return false;
  file->algorithm.resize(name_len);
  if (name_len > 0 &&
      !cursor.Read(file->algorithm.data(), name_len, "algorithm name")) {
    return false;
  }

  std::uint32_t k = 0;
  std::uint8_t scope = 0, answer = 0;
  std::uint64_t n = 0, d = 0;
  const std::uint64_t params_at = cursor.offset();
  if (!cursor.Get(k, "parameter k") ||
      !cursor.Get(file->params.eps, "eps") ||
      !cursor.Get(file->params.delta, "delta")) {
    return false;
  }
  const std::uint64_t scope_at = cursor.offset();
  if (!cursor.Get(scope, "scope byte")) return false;
  const std::uint64_t answer_at = cursor.offset();
  if (!cursor.Get(answer, "answer byte") || !cursor.Get(n, "row count") ||
      !cursor.Get(d, "column count")) {
    return false;
  }
  const std::uint64_t bits_at = cursor.offset();
  if (!cursor.Get(*bits, "summary bit count")) return false;

  // Enum bytes must name a real enumerator; a corrupt byte would
  // otherwise smuggle an invalid Scope/Answer into SketchParams and
  // misconfigure every downstream loader.
  if (scope > 1) return cursor.Fail(scope_at, "invalid scope byte");
  if (answer > 1) return cursor.Fail(answer_at, "invalid answer byte");
  // Keep every derived size computation wrap-free: the parser forms
  // (bits+63)/64 words (v2) and (bits+7)/8 bytes (v1), so anything
  // within 63 of 2^64 would silently wrap to a tiny count and let a
  // crafted file smuggle a zero-word summary past the shape checks.
  if (*bits >= std::numeric_limits<std::uint64_t>::max() - 63) {
    return cursor.Fail(bits_at, "summary bit count out of range");
  }
  // Parameter sanity: k is a cardinality, eps/delta are probabilities
  // the query procedures divide by and take logs of.
  file->params.k = k;
  if (!core::ValidSketchParams(file->params)) {
    return cursor.Fail(params_at, "invalid sketch parameters (k/eps/delta)");
  }
  file->params.scope = scope == 0 ? core::Scope::kForAll
                                  : core::Scope::kForEach;
  file->params.answer =
      answer == 0 ? core::Answer::kIndicator : core::Answer::kEstimator;
  file->n = static_cast<std::size_t>(n);
  file->d = static_cast<std::size_t>(d);
  return true;
}

/// The v1 payload: `bits` bits packed LSB-first into bytes, which is the
/// little-endian word layout, so decoding is one copy. The bounds check
/// comes first, so a corrupt bit count fails without allocating.
bool ReadLegacyPayload(ImageCursor& cursor, std::uint64_t bits,
                       util::BitVector* summary) {
  const std::uint64_t at = cursor.offset();
  const std::uint64_t num_bytes = (bits + 7) / 8;
  if (!cursor.Advance(num_bytes, "summary payload")) return false;
  std::vector<std::uint64_t> words(static_cast<std::size_t>((bits + 63) / 64));
  if (num_bytes > 0) {
    std::memcpy(words.data(), cursor.BytesAt(at),
                static_cast<std::size_t>(num_bytes));
  }
  *summary = util::BitVector::AdoptWords(std::move(words),
                                         static_cast<std::size_t>(bits));
  return true;
}

/// One section-table entry as read from the image.
struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint32_t flags = 0;
  std::uint64_t offset = 0;
  std::uint64_t words = 0;
};

/// Validates the 16 trailer bytes at `trailer_at` against the CRC32C of
/// every byte before them.
bool CheckTrailer(ImageCursor& cursor, std::uint64_t trailer_at) {
  const unsigned char* trailer = cursor.BytesAt(trailer_at);
  if (std::memcmp(trailer, arena::kTrailerMagic, 4) != 0) {
    return cursor.Fail(trailer_at, "bad integrity trailer magic");
  }
  std::uint32_t kind = 0;
  std::memcpy(&kind, trailer + 4, 4);
  if (kind != arena::kChecksumCrc32c) {
    return cursor.Fail(trailer_at + 4, "unsupported checksum kind");
  }
  std::uint64_t value = 0;
  std::memcpy(&value, trailer + 8, 8);
  if (value != util::Crc32c(cursor.BytesAt(0),
                            static_cast<std::size_t>(trailer_at))) {
    return cursor.Fail(trailer_at + 8, "file checksum mismatch");
  }
  return true;
}

/// The v2 body: section table, image size (and optional trailer), then
/// the summary and column sections, all validated in place.
bool ViewArenaSections(ImageCursor& cursor, std::uint64_t bits,
                       SketchView* view) {
  const std::uint64_t d = view->file.d;
  // The count range is checked before any entry read, so a corrupt
  // count can never drive a huge read loop.
  const std::uint64_t count_at = cursor.offset();
  std::uint32_t count = 0;
  if (!cursor.Get(count, "section count")) return false;
  if (count == 0 || count > arena::kMaxSections) {
    return cursor.Fail(count_at, "section count out of range");
  }
  SectionEntry entries[arena::kMaxSections];
  for (std::uint32_t s = 0; s < count; ++s) {
    SectionEntry& entry = entries[s];
    if (!cursor.Get(entry.kind, "section kind") ||
        !cursor.Get(entry.flags, "section flags") ||
        !cursor.Get(entry.offset, "section offset") ||
        !cursor.Get(entry.words, "section word count")) {
      return false;
    }
  }

  std::uint64_t prev_kind = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    const std::uint64_t entry_at =
        count_at + 4 + s * arena::kSectionEntryBytes;
    const SectionEntry& entry = entries[s];
    if (entry.kind != arena::kSummaryWords &&
        entry.kind != arena::kColumnWords) {
      return cursor.Fail(entry_at, "unknown section kind");
    }
    if (entry.kind <= prev_kind) {
      return cursor.Fail(entry_at, "section kinds not strictly ascending");
    }
    prev_kind = entry.kind;
    if (entry.flags != 0) {
      return cursor.Fail(entry_at + 4, "reserved section flags not zero");
    }
    if (entry.offset % arena::kSectionAlign != 0) {
      return cursor.Fail(entry_at + 8, "section offset not 64-byte aligned");
    }
    if (entry.words > kMaxSectionWords) {
      return cursor.Fail(entry_at + 16, "section word count out of range");
    }
  }
  if (entries[0].kind != arena::kSummaryWords) {
    return cursor.Fail(count_at, "missing summary-words section");
  }

  // Sections tile the tail of the file exactly: each starts at the first
  // aligned boundary after its predecessor (the first one after the
  // table), with only zero padding between.
  std::uint64_t expected_offset = arena::RoundUpToAlign(cursor.offset());
  for (std::uint32_t s = 0; s < count; ++s) {
    if (entries[s].offset != expected_offset) {
      return cursor.Fail(count_at, "section offsets do not tile the file");
    }
    expected_offset =
        arena::RoundUpToAlign(entries[s].offset + entries[s].words * 8);
  }
  const SectionEntry& summary = entries[0];
  if (summary.words != (bits + 63) / 64) {
    return cursor.Fail(count_at,
                       "summary word count does not match bit count");
  }
  const bool has_columns = count > 1;
  std::uint64_t rows = 0;
  std::uint64_t stride = 0;
  if (has_columns) {
    if (d == 0 || bits == 0 || bits % d != 0) {
      return cursor.Fail(count_at,
                         "column section requires a row-major payload shape");
    }
    rows = bits / d;
    stride = arena::ColumnStrideWords(static_cast<std::size_t>(rows));
    if (stride != 0 && d > kMaxSectionWords / stride) {
      return cursor.Fail(count_at, "column section size overflows");
    }
    if (entries[1].words != d * stride) {
      return cursor.Fail(count_at, "column word count does not match shape");
    }
  }

  // The image ends exactly where the last section does, or exactly
  // arena::kTrailerBytes later with a valid integrity trailer. Checking
  // the trailer costs one O(file) CRC pass -- the price a checksummed
  // file opts into even on the zero-copy path.
  const std::uint64_t end_offset =
      entries[count - 1].offset + entries[count - 1].words * 8;
  if (end_offset != cursor.size()) {
    if (cursor.size() != end_offset + arena::kTrailerBytes) {
      return cursor.Fail(count_at, "image size does not match section table");
    }
    if (!CheckTrailer(cursor, end_offset)) return false;
    view->checksummed = true;
  }

  // Summary section: zero padding up to it, trailing bits zero; then the
  // view is just a pointer.
  if (!cursor.SkipZeros(summary.offset - cursor.offset(),
                        "pre-section padding")) {
    return false;
  }
  const std::uint64_t* summary_words = cursor.WordsAt(summary.offset);
  if ((bits & 63) != 0 &&
      (summary_words[summary.words - 1] >> (bits & 63)) != 0) {
    return cursor.Fail(summary.offset + (summary.words - 1) * 8,
                       "summary trailing bits not zero");
  }
  view->file.summary = util::BitVector::View(
      summary.words == 0 ? nullptr : summary_words,
      static_cast<std::size_t>(bits));
  if (!has_columns) return true;

  // Column section: d columns of `rows` bits at an aligned stride, tail
  // bits and padding words zero.
  const SectionEntry& columns = entries[1];
  const std::uint64_t col_words = (rows + 63) / 64;
  if (!cursor.Advance(summary.words * 8, "summary words") ||
      !cursor.SkipZeros(columns.offset - cursor.offset(),
                        "pre-section padding")) {
    return false;
  }
  const std::uint64_t* column_words = cursor.WordsAt(columns.offset);
  for (std::uint64_t j = 0; j < d; ++j) {
    const std::uint64_t* column = column_words + j * stride;
    if ((rows & 63) != 0 && (column[col_words - 1] >> (rows & 63)) != 0) {
      return cursor.Fail(columns.offset + (j * stride + col_words - 1) * 8,
                         "column trailing bits not zero");
    }
    for (std::uint64_t w = col_words; w < stride; ++w) {
      if (column[w] != 0) {
        return cursor.Fail(columns.offset + (j * stride + w) * 8,
                           "nonzero column padding word");
      }
    }
  }
  view->columns = ArenaColumns{column_words, static_cast<std::size_t>(rows),
                               static_cast<std::size_t>(d),
                               static_cast<std::size_t>(stride)};
  return true;
}

}  // namespace

std::optional<SketchView> ViewSketchImage(
    std::shared_ptr<const util::MappedFile> image, SketchError* error) {
  IFSKETCH_CHECK(image != nullptr);
  ImageCursor cursor(*image, error);
  SketchView view;
  std::uint64_t bits = 0;
  if (!ReadHeader(cursor, &view.file, &bits)) return std::nullopt;
  const bool ok = view.file.version == arena::kVersionLegacy
                      ? ReadLegacyPayload(cursor, bits, &view.file.summary)
                      : ViewArenaSections(cursor, bits, &view);
  if (!ok) return std::nullopt;
  view.image = std::move(image);
  return view;
}

bool CheckColumnSection(const SketchView& view, SketchError* error) {
  if (!view.columns.has_value()) return true;
  const ArenaColumns& columns = *view.columns;
  const core::ColumnStore expected =
      core::ColumnStore::FromRowMajorBits(view.file.summary, columns.d);
  const std::size_t words = (columns.rows + 63) / 64;
  for (std::size_t j = 0; j < columns.d; ++j) {
    const std::uint64_t* want = expected.Column(j).data();
    const std::uint64_t* got = columns.words + j * columns.stride_words;
    for (std::size_t w = 0; w < words; ++w) {
      if (got[w] == want[w]) continue;
      if (error != nullptr) {
        error->message = "column section disagrees with summary";
        error->offset = static_cast<std::uint64_t>(
            reinterpret_cast<const unsigned char*>(got + w) -
            view.image->data());
      }
      return false;
    }
  }
  return true;
}

}  // namespace ifsketch::sketch
