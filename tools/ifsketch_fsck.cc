// ifsketch_fsck: offline integrity verification for durable artifacts.
//
//   ifsketch_fsck PATH [PATH ...]
//
// Each PATH is either an IFSK sketch file or a WAL directory (see
// src/ingest/wal.h). Files are opened exactly as a server or the CLI
// opens them: Engine::Open with LoadMode::kCopied and, for arena v2,
// also kMapped. So fsck accepts exactly what every load path accepts --
// the image parser's framing and optional CRC32C integrity trailer, the
// producing algorithm's registration, and a summary payload of the size
// that algorithm emits for the recorded shape. Directories get the
// full WAL walk: checkpoint magic/CRC/decodability (the named algorithm
// must exist and accept the saved builder state), segment chaining, and
// every record frame; a torn tail in the last segment is recoverable by
// design and only noted.
//
// Output: one "ok"/note line per healthy artifact to stdout, one
// "path: [byte N: ]reason" line per failure to stderr. Exit 0 when every
// PATH verified, 1 when anything is corrupt, 2 on usage errors --
// scripts can gate a deploy on it.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "engine.h"
#include "ingest/wal.h"
#include "sketch/sketch_file.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(stderr,
               "usage: ifsketch_fsck PATH [PATH ...]\n"
               "  PATH  an IFSK sketch file or a WAL directory\n");
  return 2;
}

/// True when the (already fully validated) file ends with the integrity
/// trailer, so the report can say whether corruption would be caught.
bool HasTrailer(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  if (!in || size < static_cast<std::streamoff>(sketch::arena::kTrailerBytes)) {
    return false;
  }
  char magic[4];
  in.seekg(size - static_cast<std::streamoff>(sketch::arena::kTrailerBytes));
  in.read(magic, 4);
  return in &&
         std::memcmp(magic, sketch::arena::kTrailerMagic, 4) == 0;
}

/// Verifies one sketch file through every load path that applies to it;
/// a failure prints Engine::Open's diagnostic.
bool VerifySketchFile(const std::string& path) {
  std::string error;
  const auto engine = Engine::Open(path, Engine::LoadMode::kCopied, &error);
  if (!engine.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  if (engine->format_version() == sketch::arena::kVersionArena &&
      !Engine::Open(path, Engine::LoadMode::kMapped, &error).has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  std::printf("%s: ok (v%u, %s, %s, %zu-bit summary)\n", path.c_str(),
              engine->format_version(), engine->algorithm().c_str(),
              HasTrailer(path) ? "crc32c trailer" : "no checksum",
              engine->summary_bits());
  return true;
}

bool VerifyWalDirectory(const std::string& path) {
  const ingest::WalFsckReport report = ingest::VerifyWalDir(path);
  for (const auto& note : report.notes) {
    std::printf("%s: note: %s\n", path.c_str(), note.c_str());
  }
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  if (report.ok) std::printf("%s: ok (WAL directory)\n", path.c_str());
  return report.ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::error_code ec;
    const bool is_dir = std::filesystem::is_directory(path, ec);
    if (!(is_dir ? VerifyWalDirectory(path) : VerifySketchFile(path))) {
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
