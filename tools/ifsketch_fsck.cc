// ifsketch_fsck: offline integrity verification for durable artifacts.
//
//   ifsketch_fsck PATH [PATH ...]
//
// Each PATH is either an IFSK sketch file or a WAL directory (see
// src/ingest/wal.h). Files are opened exactly as a server or the CLI
// opens them, once, through Engine::Open -- so fsck accepts exactly what
// they accept: the image parser's framing and optional CRC32C integrity
// trailer, the producing algorithm's registration, and a summary
// payload of the size that algorithm emits for the recorded shape. On
// top of that it runs the one check the parser leaves out, because it
// costs a pass over the payload: a v2 column section must be the
// transpose of the summary (sketch::CheckColumnSection), since every
// query reads the section directly. Directories get the
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
#include <filesystem>
#include <string>

#include "engine.h"
#include "ingest/wal.h"
#include "sketch/sketch_view.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(stderr,
               "usage: ifsketch_fsck PATH [PATH ...]\n"
               "  PATH  an IFSK sketch file or a WAL directory\n");
  return 2;
}

/// Verifies one sketch file; a failure prints Engine::Open's diagnostic
/// or the column check's "path: byte N: reason".
bool VerifySketchFile(const std::string& path) {
  std::string error;
  const auto engine = Engine::Open(path, &error);
  if (!engine.has_value()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return false;
  }
  sketch::SketchError column_error;
  if (!sketch::CheckColumnSection(engine->view(), &column_error)) {
    std::fprintf(stderr, "%s: byte %llu: %s\n", path.c_str(),
                 static_cast<unsigned long long>(column_error.offset),
                 column_error.message.c_str());
    return false;
  }
  // Only the parser knows whether a trailer was verified: v1 files
  // carry none, whatever bytes follow their payload.
  std::printf("%s: ok (v%u, %s, %s, %zu-bit summary)\n", path.c_str(),
              engine->format_version(), engine->algorithm().c_str(),
              engine->view().checksummed ? "crc32c trailer" : "no checksum",
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
