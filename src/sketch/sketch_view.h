// The IFSK image parser: the one validator behind every way in.
//
// Every IFSK image runs ViewSketchImage, whatever its source: a file
// mmap'd by Engine::Open (util::MappedFile::Open), a file read by
// LoadSketchFile (OpenBuffered), a stream read by ReadSketch
// (FromBytes), or the in-memory image WriteSketchImage lays out for
// Engine::Build and Engine::FromFile. The parser validates the whole
// image in place, under the validate-everything discipline (magic,
// version, enum bytes, parameter ranges, section framing, alignment,
// padding, tail bits, the optional integrity trailer), and returns a
// SketchView:
//
//   - v2 (arena): file.summary is a borrowed util::BitVector::View over
//     the image, and `columns`, when the file carries a column section,
//     describes it for core::ColumnStore::FromColumnWords. Nothing is
//     decoded and nothing is copied: viewing an image is O(header + d)
//     regardless of payload size, and the SIMD query kernels run
//     straight out of it.
//   - v1 (legacy, byte-packed): there are no word sections to borrow,
//     so file.summary is decoded into owned bits and `columns` is empty.
//     The legacy rule ignores bytes after the payload.
//
// Lifetime: the view holds its image through a shared_ptr, so the
// borrowed summary and columns stay valid for as long as the view does.
// Copying file.summary deep-copies it out of the image.
#ifndef IFSKETCH_SKETCH_SKETCH_VIEW_H_
#define IFSKETCH_SKETCH_SKETCH_VIEW_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "sketch/sketch_file.h"
#include "util/mapped_file.h"

namespace ifsketch::sketch {

/// The column-words section of an arena image: d columns of `rows` bits,
/// column j's words at words[j*stride_words ..]; borrowed storage.
struct ArenaColumns {
  const std::uint64_t* words = nullptr;
  std::size_t rows = 0;
  std::size_t d = 0;
  std::size_t stride_words = 0;
};

/// A validated window onto an IFSK image. `file` has the header metadata
/// and the summary (a view into `image` for v2, owned bits for v1);
/// `columns` is set only for v2 files with a column section.
struct SketchView {
  SketchFile file;
  std::optional<ArenaColumns> columns;
  /// The bytes file.summary and columns borrow from.
  std::shared_ptr<const util::MappedFile> image;
  /// Whether the image ends with a verified integrity trailer (v2 only).
  bool checksummed = false;
};

/// Validates an IFSK image of either version in place and returns a view
/// that owns it. Returns nullopt on anything malformed, with the reason
/// and the byte offset of the first invalid field in *error when
/// provided.
std::optional<SketchView> ViewSketchImage(
    std::shared_ptr<const util::MappedFile> image,
    SketchError* error = nullptr);

/// Compares every data word of `view`'s column section with the
/// transpose of its summary (core::ColumnStore::FromRowMajorBits).
/// True when they agree or the view has no column section; otherwise
/// false with "column section disagrees with summary" at the image byte
/// offset of the first differing word. Costs O(payload).
bool CheckColumnSection(const SketchView& view, SketchError* error = nullptr);

}  // namespace ifsketch::sketch

#endif  // IFSKETCH_SKETCH_SKETCH_VIEW_H_
