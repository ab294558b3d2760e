// A private scratch directory for the files a bench writes: created with
// mkdtemp(3) under the system temp directory, removed with everything
// in it when the object goes out of scope. Benches declare one at the
// top of main, so every exit path -- including the early error returns
// -- cleans up, and concurrent runs never share a file name.
#ifndef IFSKETCH_BENCH_SCRATCH_DIR_H_
#define IFSKETCH_BENCH_SCRATCH_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace ifsketch::bench {

class ScratchDir {
 public:
  /// Creates "<temp dir>/<prefix>XXXXXX"; ok() reports whether it worked.
  explicit ScratchDir(const std::string& prefix) {
    std::error_code ec;
    std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    if (ec) base = "/tmp";
    std::string pattern = (base / (prefix + "XXXXXX")).string();
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }

  ~ScratchDir() {
    std::error_code ec;
    if (ok()) std::filesystem::remove_all(path_, ec);
  }

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  bool ok() const { return !path_.empty(); }

  /// The path of `name` inside the directory.
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace ifsketch::bench

#endif  // IFSKETCH_BENCH_SCRATCH_DIR_H_
