#include "util/mapped_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <new>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define IFSKETCH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ifsketch::util {
namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

#if IFSKETCH_HAVE_MMAP
// The most recently released private image of at most kKeptBytes, kept
// for the next Allocate of its size (see mapped_file.h). Never
// destroyed, so images released during static destruction still find
// it.
constexpr std::size_t kKeptBytes = std::size_t{256} << 10;

struct KeptImage {
  std::mutex mu;
  unsigned char* data = nullptr;
  std::size_t size = 0;
};

KeptImage& Kept() {
  static KeptImage* kept = new KeptImage;
  return *kept;
}
#else
constexpr std::size_t kAlignment = 64;
#endif

}  // namespace

MappedFile::~MappedFile() {
  if (data_ == nullptr) return;
#if IFSKETCH_HAVE_MMAP
  if (!mapped_ && size_ <= kKeptBytes) {
    // Keep this image; release the one it displaces, if any.
    KeptImage& kept = Kept();
    std::lock_guard<std::mutex> lock(kept.mu);
    std::swap(kept.data, data_);
    std::swap(kept.size, size_);
  }
  if (data_ != nullptr) munmap(data_, size_);
#else
  ::operator delete[](data_, std::align_val_t{kAlignment});
#endif
}

std::shared_ptr<const MappedFile> MappedFile::Open(const std::string& path,
                                                  std::string* error) {
#if IFSKETCH_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, path + ": " + std::strerror(errno));
    return nullptr;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    SetError(error, path + ": fstat: " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file is still a valid
    // (if never valid-IFSK) image.
    ::close(fd);
    auto file = std::shared_ptr<MappedFile>(new MappedFile());
    file->mapped_ = true;
    return file;
  }
  void* base = mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) {
    // Some filesystems refuse mmap; the caller still gets the bytes.
    return OpenBuffered(path, error);
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->data_ = static_cast<unsigned char*>(base);
  file->size_ = size;
  file->mapped_ = true;
  return file;
#else
  return OpenBuffered(path, error);
#endif
}

std::shared_ptr<const MappedFile> MappedFile::OpenBuffered(
    const std::string& path, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    SetError(error, path + ": " + std::strerror(errno));
    return nullptr;
  }
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  if (in.bad()) {
    SetError(error, path + ": read error");
    return nullptr;
  }
  return FromBytes(bytes.data(), bytes.size());
}

std::shared_ptr<const MappedFile> MappedFile::FromBytes(const void* data,
                                                       std::size_t size) {
  auto image = Allocate(size);
  if (size > 0) std::memcpy(image->data_, data, size);
  return image;
}

std::shared_ptr<MappedFile> MappedFile::Allocate(std::size_t size) {
  auto image = std::shared_ptr<MappedFile>(new MappedFile());
  if (size == 0) return image;
#if IFSKETCH_HAVE_MMAP
  {
    KeptImage& kept = Kept();
    std::lock_guard<std::mutex> lock(kept.mu);
    if (kept.size == size) {
      std::swap(kept.data, image->data_);
      kept.size = 0;
    }
  }
  if (image->data_ != nullptr) {
    std::memset(image->data_, 0, size);
  } else {
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;  // the writer touches every page anyway
#endif
    void* base = mmap(nullptr, size, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    image->data_ = static_cast<unsigned char*>(base);
  }
#else
  image->data_ = static_cast<unsigned char*>(
      ::operator new[](size, std::align_val_t{kAlignment}));
  std::memset(image->data_, 0, size);
#endif
  image->size_ = size;
  return image;
}

}  // namespace ifsketch::util
