// Byte images for the IFSK image parser (sketch/sketch_view.h), which
// hands validated views -- not copies -- to the query kernels. Open
// mmaps a whole file read-only and shared, so every process serving it
// shares its page-cache pages (is_mapped()). OpenBuffered, FromBytes and
// Allocate hold a file read, bytes already in memory (streams, tests),
// or an image a writer fills in place (sketch::WriteSketchImage, behind
// built and published Engines) in a private anonymous mapping: out of
// malloc, so snapshot images built on the pushing thread and freed on
// query threads cannot grow its per-thread arenas. Every image is
// released by munmap when its last shared_ptr owner goes away, save that
// the most recently released private image of up to 256 KiB is kept for
// the next Allocate of its size: a stream of same-sized snapshots then
// costs no mmap/munmap pair each (a munmap's TLB shootdown is tens of
// microseconds on a busy server). Without mmap (non-POSIX builds) images
// are aligned heap buffers, and Open falls back to OpenBuffered there
// and where a filesystem refuses to map.
//
// data() is 64-byte aligned on every path, so any image region whose
// offset is a multiple of 64 can be read as aligned std::uint64_t words.
// Once handed out as const an image is immutable and may be shared
// freely across threads.
#ifndef IFSKETCH_UTIL_MAPPED_FILE_H_
#define IFSKETCH_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

namespace ifsketch::util {

/// An immutable byte image, of a file or built in memory.
class MappedFile {
 public:
  /// Maps (or, failing that, reads) the file at `path`. Returns nullptr
  /// on any I/O failure, with a one-line description in *error when
  /// provided. Empty files yield a valid object with size() == 0.
  static std::shared_ptr<const MappedFile> Open(const std::string& path,
                                                std::string* error = nullptr);

  /// Reads the file into a private image, never sharing its pages --
  /// the fallback path, callable directly for tests and diagnostics.
  static std::shared_ptr<const MappedFile> OpenBuffered(
      const std::string& path, std::string* error = nullptr);

  /// A private copy of `size` bytes at `data` (null only when
  /// size == 0).
  static std::shared_ptr<const MappedFile> FromBytes(const void* data,
                                                     std::size_t size);

  /// A zero-filled private image of `size` bytes for a writer to fill
  /// through mutable_data() before handing it out as const. Throws
  /// std::bad_alloc when the memory cannot be had, like operator new.
  static std::shared_ptr<MappedFile> Allocate(std::size_t size);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// First byte of the image; 64-byte aligned; null iff size() == 0.
  const unsigned char* data() const { return data_; }
  unsigned char* mutable_data() { return data_; }
  std::size_t size() const { return size_; }

  /// True when the bytes are the file's own mmap'd pages (page cache),
  /// false for a private image.
  bool is_mapped() const { return mapped_; }

 private:
  MappedFile() = default;

  unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_MAPPED_FILE_H_
