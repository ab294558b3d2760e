#include "ingest/wal.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "sketch/sketch_file.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace ifsketch::ingest {
namespace {

constexpr char kSegmentMagic[4] = {'I', 'F', 'W', 'L'};
constexpr char kCheckpointMagic[4] = {'I', 'F', 'W', 'C'};
constexpr std::uint16_t kSegmentVersion = 1;
constexpr std::uint16_t kCheckpointVersion = 1;
constexpr std::size_t kSegmentHeaderBytes = 28;
constexpr std::size_t kRecordHeaderBytes = 8;  // len u32 + crc32c u32
constexpr std::size_t kFlushBytes = 64 * 1024;
constexpr char kCheckpointName[] = "checkpoint.ifwc";
// Caps name/state fields so a corrupt length can never drive a huge
// allocation before the CRC check would have caught it.
constexpr std::size_t kMaxAlgorithmName = 256;
constexpr std::uint64_t kMaxStateBits = std::uint64_t{1} << 40;

// ------------------------------------------------- little-endian fields

void PutU16(std::string* out, std::uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>(v >> 8));
}

void PutU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void StoreU32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

const unsigned char* Bytes(const std::string& s) {
  return reinterpret_cast<const unsigned char*>(s.data());
}

std::uint16_t GetU16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t GetU32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

std::uint64_t GetU64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = v << 8 | p[i];
  return v;
}

std::string At(const std::string& path, std::uint64_t offset,
               const std::string& reason) {
  std::ostringstream s;
  s << path << ": byte " << offset << ": " << reason;
  return s.str();
}

// ------------------------------------------------------------ file bits

std::string SegmentFileName(std::uint64_t first_row) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%016llx.seg",
                static_cast<unsigned long long>(first_row));
  return name;
}

struct SegmentInfo {
  std::string path;
  std::uint64_t first_row = 0;
};

bool ParseSegmentFileName(const std::string& name, std::uint64_t* first_row) {
  if (name.size() != 24 || name.rfind("wal-", 0) != 0 ||
      name.substr(20) != ".seg") {
    return false;
  }
  std::uint64_t v = 0;
  for (std::size_t i = 4; i < 20; ++i) {
    const char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    v = v << 4 | static_cast<std::uint64_t>(digit);
  }
  *first_row = v;
  return true;
}

/// Segments in the directory, ascending by first row. Non-segment
/// entries (the checkpoint, *.tmp leftovers) are ignored.
bool ListSegments(const std::string& dir, std::vector<SegmentInfo>* out,
                  std::string* error) {
  out->clear();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::uint64_t first_row;
    if (ParseSegmentFileName(entry.path().filename().string(), &first_row)) {
      out->push_back({entry.path().string(), first_row});
    }
  }
  if (ec) {
    if (error != nullptr) *error = dir + ": " + ec.message();
    return false;
  }
  std::sort(out->begin(), out->end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.first_row < b.first_row;
            });
  return true;
}

bool ReadWholeFile(const std::string& path, std::string* out,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    if (error != nullptr) *error = path + ": cannot open";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// --------------------------------------------------------- row framing

/// Appends one record -- payload length, CRC32C of the payload, then
/// the row's low payload_bytes bytes -- writing each field in place at
/// the end of `out`. The payload is the row's words as they sit in
/// memory: the little-endian layout, as in the IFSK v1 payload.
void AppendRecord(std::string* out, const util::BitVector& row,
                  std::size_t payload_bytes) {
  const std::size_t at = out->size();
  out->resize(at + kRecordHeaderBytes + payload_bytes);
  auto* record = reinterpret_cast<unsigned char*>(out->data() + at);
  unsigned char* payload = record + kRecordHeaderBytes;
  std::memcpy(payload, row.data(), payload_bytes);
  StoreU32(record, static_cast<std::uint32_t>(payload_bytes));
  StoreU32(record + 4, util::Crc32c(payload, payload_bytes));
}

/// Unpacks a record payload into a width-d row; false when padding bits
/// past d are set (corruption the CRC happened to bless -- reject).
bool DecodeRow(const unsigned char* p, std::size_t payload_bytes,
               std::size_t d, util::BitVector* out) {
  std::vector<std::uint64_t> words((d + 63) / 64, 0);
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(p[i]) << (8 * (i % 8));
  }
  const std::size_t tail = d % 64;
  if (tail != 0 && words.back() >> tail != 0) return false;
  *out = util::BitVector::AdoptWords(std::move(words), d);
  return true;
}

// ----------------------------------------------------- segment headers

std::string EncodeSegmentHeader(std::uint64_t d, std::uint64_t first_row) {
  std::string out;
  out.append(kSegmentMagic, 4);
  PutU16(&out, kSegmentVersion);
  PutU16(&out, 0);  // flags
  PutU64(&out, d);
  PutU64(&out, first_row);
  PutU32(&out, util::Crc32c(out.data(), out.size()));
  return out;
}

// ------------------------------------------------- checkpoint encoding

struct CheckpointData {
  std::string algorithm;
  core::SketchParams params;
  std::uint64_t d = 0;
  std::uint64_t seed = 0;
  std::uint64_t rows = 0;
  util::Rng::State rng_state{};
  util::BitVector builder_state;
};

std::string EncodeCheckpoint(const std::string& algorithm,
                             const core::SketchParams& params,
                             std::uint64_t d, std::uint64_t seed,
                             std::uint64_t rows,
                             const util::Rng::State& rng_state,
                             const util::BitVector& builder_state) {
  std::string out;
  out.append(kCheckpointMagic, 4);
  PutU16(&out, kCheckpointVersion);
  PutU16(&out, static_cast<std::uint16_t>(algorithm.size()));
  out.append(algorithm);
  PutU32(&out, static_cast<std::uint32_t>(params.k));
  PutF64(&out, params.eps);
  PutF64(&out, params.delta);
  out.push_back(static_cast<char>(params.scope));
  out.push_back(static_cast<char>(params.answer));
  PutU64(&out, d);
  PutU64(&out, seed);
  PutU64(&out, rows);
  for (std::uint64_t word : rng_state.s) PutU64(&out, word);
  out.push_back(rng_state.have_cached_gaussian ? 1 : 0);
  PutF64(&out, rng_state.cached_gaussian);
  PutU64(&out, builder_state.size());
  for (std::size_t i = 0; i < builder_state.num_words(); ++i) {
    PutU64(&out, builder_state.data()[i]);
  }
  PutU32(&out, util::Crc32c(out.data(), out.size()));
  return out;
}

bool DecodeCheckpoint(const std::string& path, const std::string& bytes,
                      CheckpointData* out, std::string* error) {
  const unsigned char* p = Bytes(bytes);
  const std::size_t size = bytes.size();
  auto fail = [&](std::uint64_t at, const std::string& reason) {
    if (error != nullptr) *error = At(path, at, reason);
    return false;
  };
  // Whole-file CRC first: the checkpoint is written atomically, so a bad
  // checksum is genuine corruption, not a torn write.
  if (size < kSegmentHeaderBytes) return fail(0, "checkpoint truncated");
  if (util::Crc32c(p, size - 4) != GetU32(p + size - 4)) {
    return fail(size - 4, "checkpoint checksum mismatch");
  }
  if (std::memcmp(p, kCheckpointMagic, 4) != 0) {
    return fail(0, "bad checkpoint magic");
  }
  if (GetU16(p + 4) != kCheckpointVersion) {
    return fail(4, "unsupported checkpoint version");
  }
  const std::size_t name_len = GetU16(p + 6);
  if (name_len == 0 || name_len > kMaxAlgorithmName) {
    return fail(6, "implausible algorithm name length");
  }
  std::size_t at = 8;
  auto need = [&](std::size_t n) { return size - 4 - at >= n; };
  if (!need(name_len + 30)) return fail(at, "checkpoint truncated");
  out->algorithm.assign(bytes, at, name_len);
  at += name_len;
  out->params.k = GetU32(p + at);
  at += 4;
  out->params.eps = std::bit_cast<double>(GetU64(p + at));
  at += 8;
  out->params.delta = std::bit_cast<double>(GetU64(p + at));
  at += 8;
  if (p[at] > 1) return fail(at, "bad scope byte");
  out->params.scope = static_cast<core::Scope>(p[at]);
  ++at;
  if (p[at] > 1) return fail(at, "bad answer byte");
  out->params.answer = static_cast<core::Answer>(p[at]);
  ++at;
  if (!core::ValidSketchParams(out->params)) {
    return fail(8 + name_len, "invalid sketch parameters");
  }
  if (!need(24 + 41 + 8)) return fail(at, "checkpoint truncated");
  out->d = GetU64(p + at);
  at += 8;
  if (out->d == 0) return fail(at - 8, "row width must be positive");
  out->seed = GetU64(p + at);
  at += 8;
  out->rows = GetU64(p + at);
  at += 8;
  for (std::uint64_t& word : out->rng_state.s) {
    word = GetU64(p + at);
    at += 8;
  }
  if (p[at] > 1) return fail(at, "bad gaussian-cache byte");
  out->rng_state.have_cached_gaussian = p[at] == 1;
  ++at;
  out->rng_state.cached_gaussian = std::bit_cast<double>(GetU64(p + at));
  at += 8;
  const std::uint64_t state_bits = GetU64(p + at);
  if (state_bits > kMaxStateBits) {
    return fail(at, "implausible builder state size");
  }
  at += 8;
  const std::size_t state_words =
      static_cast<std::size_t>((state_bits + 63) / 64);
  if (size - 4 - at != state_words * 8) {
    return fail(at, "builder state length does not match file size");
  }
  std::vector<std::uint64_t> words(state_words);
  for (std::size_t i = 0; i < state_words; ++i) {
    words[i] = GetU64(p + at);
    at += 8;
  }
  const std::size_t tail = static_cast<std::size_t>(state_bits % 64);
  if (tail != 0 && words.back() >> tail != 0) {
    return fail(at - 8, "builder state has nonzero padding bits");
  }
  out->builder_state = util::BitVector::AdoptWords(
      std::move(words), static_cast<std::size_t>(state_bits));
  return true;
}

// ------------------------------------------------------- segment replay

struct ReplayResult {
  std::uint64_t next_row = 0;  // in: skip rows below; out: final prefix
  std::uint64_t replayed = 0;
  std::uint64_t truncated_bytes = 0;
  std::vector<std::string> torn_notes;
};

/// Walks `segments` in order, validating every frame and feeding rows
/// >= next_row to `observe` (which may be null for verification only).
/// A bad frame at the tail of the LAST segment is a torn write: replay
/// stops there, the dropped bytes are counted, and a note is recorded.
/// The same damage anywhere else returns false with a located reason.
/// `expected_d` pins the row width (0 = adopt the first segment's).
bool ReplaySegments(const std::vector<SegmentInfo>& segments,
                    std::uint64_t expected_d,
                    const std::function<void(const util::BitVector&)>& observe,
                    ReplayResult* result, std::string* error) {
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentInfo& segment = segments[i];
    const bool last = i + 1 == segments.size();
    std::string bytes;
    if (!ReadWholeFile(segment.path, &bytes, error)) return false;
    const unsigned char* p = Bytes(bytes);

    // `torn` is only a legal verdict for the final bytes of the log.
    auto torn_or_fail = [&](std::uint64_t at, std::uint64_t good_end,
                            const std::string& reason) {
      if (!last) {
        if (error != nullptr) *error = At(segment.path, at, reason);
        return false;
      }
      result->truncated_bytes += bytes.size() - good_end;
      result->torn_notes.push_back(At(segment.path, at, reason));
      return true;
    };

    if (bytes.size() < kSegmentHeaderBytes) {
      if (!torn_or_fail(bytes.size(), 0, "segment header truncated")) {
        return false;
      }
      break;
    }
    if (util::Crc32c(p, kSegmentHeaderBytes - 4) !=
        GetU32(p + kSegmentHeaderBytes - 4)) {
      if (!torn_or_fail(kSegmentHeaderBytes - 4, 0,
                        "segment header checksum mismatch")) {
        return false;
      }
      break;
    }
    auto fail = [&](std::uint64_t at, const std::string& reason) {
      if (error != nullptr) *error = At(segment.path, at, reason);
      return false;
    };
    // Header CRC is valid from here on: field problems are real
    // corruption or a foreign stream, never a torn write.
    if (std::memcmp(p, kSegmentMagic, 4) != 0) return fail(0, "bad magic");
    if (GetU16(p + 4) != kSegmentVersion) {
      return fail(4, "unsupported segment version");
    }
    const std::uint64_t d = GetU64(p + 8);
    if (d == 0) return fail(8, "row width must be positive");
    if (expected_d == 0) expected_d = d;
    if (d != expected_d) return fail(8, "row width differs across the log");
    if (GetU64(p + 16) != segment.first_row) {
      return fail(16, "first row does not match the file name");
    }
    if (segment.first_row > result->next_row) {
      return fail(16, "gap in the log: rows " +
                          std::to_string(result->next_row) + ".." +
                          std::to_string(segment.first_row) + " missing");
    }

    const std::size_t payload_bytes = static_cast<std::size_t>((d + 7) / 8);
    std::uint64_t row_index = segment.first_row;
    std::size_t at = kSegmentHeaderBytes;
    bool stop = false;
    while (at < bytes.size()) {
      const std::size_t remaining = bytes.size() - at;
      if (remaining < kRecordHeaderBytes) {
        if (!torn_or_fail(at, at, "record header truncated")) return false;
        stop = true;
        break;
      }
      const std::uint32_t len = GetU32(p + at);
      if (len != payload_bytes) {
        if (!torn_or_fail(at, at, "record length does not match row width")) {
          return false;
        }
        stop = true;
        break;
      }
      if (remaining < kRecordHeaderBytes + len) {
        if (!torn_or_fail(at, at, "record payload truncated")) return false;
        stop = true;
        break;
      }
      const unsigned char* payload = p + at + kRecordHeaderBytes;
      if (util::Crc32c(payload, len) != GetU32(p + at + 4)) {
        if (!torn_or_fail(at + 4, at, "record checksum mismatch")) {
          return false;
        }
        stop = true;
        break;
      }
      util::BitVector row;
      if (!DecodeRow(payload, len, static_cast<std::size_t>(d), &row)) {
        if (!torn_or_fail(at + kRecordHeaderBytes, at,
                          "record has nonzero padding bits")) {
          return false;
        }
        stop = true;
        break;
      }
      if (row_index >= result->next_row) {
        IFSKETCH_CHECK_EQ(row_index, result->next_row);
        if (observe) observe(row);
        ++result->replayed;
        ++result->next_row;
      }
      ++row_index;
      at += kRecordHeaderBytes + len;
    }
    if (stop) break;  // torn tail: nothing after it may be replayed
  }
  return true;
}

}  // namespace

// --------------------------------------------------------- sync policy

const char* WalSyncPolicyName(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kEveryRecord:
      return "every_record";
    case WalSyncPolicy::kEveryN:
      return "every_n";
    case WalSyncPolicy::kOnSnapshot:
      return "on_snapshot";
  }
  return "unknown";
}

bool ParseWalSyncPolicy(const std::string& text, WalSyncPolicy* policy) {
  if (text == "every_record") {
    *policy = WalSyncPolicy::kEveryRecord;
  } else if (text == "every_n") {
    *policy = WalSyncPolicy::kEveryN;
  } else if (text == "on_snapshot") {
    *policy = WalSyncPolicy::kOnSnapshot;
  } else {
    return false;
  }
  return true;
}

// ------------------------------------------------------------------ Wal

Wal::Wal(const WalOptions& options, const std::string& algorithm,
         const core::SketchParams& params, std::size_t d, std::uint64_t seed)
    : options_(options),
      algorithm_(algorithm),
      params_(params),
      d_(d),
      seed_(seed),
      record_payload_bytes_((d + 7) / 8) {
  obs::MetricsRegistry& registry = options.registry != nullptr
                                       ? *options.registry
                                       : obs::MetricsRegistry::Default();
  records_metric_ = registry.GetCounter("wal_records_total");
  fsync_metric_ = registry.GetHistogram("wal_fsync_ns");
  segment_bytes_metric_ = registry.GetGauge("wal_segment_bytes");
  replayed_metric_ = registry.GetCounter("recovery_replayed_rows_total");
}

Wal::~Wal() {
  // Best-effort flush of buffered appends (no fsync: the policy already
  // said how much a power loss may take).
  if (ok() && segment_ != nullptr) {
    FlushBuffer();
    segment_->Close();
  }
}

bool Wal::Fail(const std::string& detail) {
  if (error_.empty()) {
    error_ = detail.empty() ? "write-ahead log failed" : detail;
  }
  return false;
}

std::unique_ptr<Wal> Wal::Open(const WalOptions& options,
                               const std::string& algorithm,
                               const core::SketchParams& params,
                               std::size_t d, std::uint64_t seed,
                               sketch::StreamingBuilder* builder,
                               util::Rng* rng, WalRecovery* recovery,
                               std::string* error) {
  auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = reason;
    return nullptr;
  };
  if (options.dir.empty()) return fail("wal: directory must not be empty");
  if (options.sync == WalSyncPolicy::kEveryN && options.sync_every == 0) {
    return fail("wal: sync_every must be >= 1 under every_n");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) return fail("wal: cannot create " + options.dir + ": " +
                      ec.message());

  std::unique_ptr<Wal> wal(new Wal(options, algorithm, params, d, seed));
  WalRecovery rec;
  std::uint64_t next_row = 0;

  // 1. Restore the checkpoint, when one exists. It was written
  // atomically, so any decode failure is corruption, not a torn write.
  const std::string ckpt_path = options.dir + "/" + kCheckpointName;
  if (std::filesystem::exists(ckpt_path, ec)) {
    std::string bytes, reason;
    if (!ReadWholeFile(ckpt_path, &bytes, &reason)) return fail(reason);
    CheckpointData ckpt;
    if (!DecodeCheckpoint(ckpt_path, bytes, &ckpt, &reason)) {
      return fail(reason);
    }
    if (ckpt.algorithm != algorithm || ckpt.d != d || ckpt.seed != seed ||
        ckpt.params.k != params.k || ckpt.params.eps != params.eps ||
        ckpt.params.delta != params.delta ||
        ckpt.params.scope != params.scope ||
        ckpt.params.answer != params.answer) {
      return fail(ckpt_path +
                  ": checkpoint belongs to a different stream identity "
                  "(algorithm/params/width/seed mismatch)");
    }
    if (!builder->RestoreState(ckpt.builder_state)) {
      return fail(ckpt_path + ": builder state does not decode");
    }
    if (builder->rows_seen() != ckpt.rows) {
      return fail(ckpt_path + ": builder state row count disagrees with "
                              "the checkpoint header");
    }
    rng->RestoreState(ckpt.rng_state);
    next_row = ckpt.rows;
    rec.checkpoint_rows = ckpt.rows;
  }

  // 2. Replay the tail past the checkpoint, truncating a torn end.
  std::vector<SegmentInfo> segments;
  std::string reason;
  if (!ListSegments(options.dir, &segments, &reason)) return fail(reason);
  ReplayResult replay;
  replay.next_row = next_row;
  if (!ReplaySegments(
          segments, d,
          [builder](const util::BitVector& row) { builder->Observe(row); },
          &replay, &reason)) {
    return fail(reason);
  }
  rec.replayed_rows = replay.replayed;
  rec.truncated_bytes = replay.truncated_bytes;
  rec.rows = replay.next_row;
  wal->replayed_metric_->Add(replay.replayed);

  // 3. Make the recovered state durable again before accepting appends:
  // fresh checkpoint, fresh segment, stale segments pruned. The dir is
  // pristine afterwards no matter how mangled the tail was.
  if (!wal->WriteCheckpoint(*builder, *rng, rec.rows) ||
      !wal->OpenSegment(rec.rows)) {
    return fail(wal->error());
  }
  for (const SegmentInfo& segment : segments) {
    // A stale segment can share the fresh one's name (a crash right
    // after a rotation leaves wal-<rows>.seg behind, and OpenSegment
    // just recreated that path) -- unlinking it would orphan the live
    // file descriptor and silently drop every append after it.
    if (segment.path == wal->segment_path_) continue;
    std::filesystem::remove(segment.path, ec);
  }
  if (!util::SyncDir(options.dir, &reason)) return fail(reason);

  if (recovery != nullptr) *recovery = rec;
  return wal;
}

bool Wal::Append(const util::BitVector& row) {
  if (!ok()) return false;
  IFSKETCH_CHECK_EQ(row.size(), d_);
  AppendRecord(&buffer_, row, record_payload_bytes_);
  segment_bytes_ += kRecordHeaderBytes + record_payload_bytes_;
  records_metric_->Add();
  segment_bytes_metric_->Set(static_cast<std::int64_t>(segment_bytes_));
  ++records_since_sync_;
  const bool want_sync =
      options_.sync == WalSyncPolicy::kEveryRecord ||
      (options_.sync == WalSyncPolicy::kEveryN &&
       records_since_sync_ >= options_.sync_every);
  if ((want_sync || buffer_.size() >= kFlushBytes) && !FlushBuffer()) {
    return false;
  }
  if (want_sync && !SyncSegment()) return false;
  return true;
}

bool Wal::Checkpoint(const sketch::StreamingBuilder& builder,
                     const util::Rng& rng, std::uint64_t rows) {
  if (!ok()) return false;
  // Rows <= `rows` become durable twice over: the segment fsync makes
  // the raw log stable, then the checkpoint supersedes it. The fsync
  // runs under every policy -- this IS the on_snapshot sync point.
  if (!FlushBuffer() || !SyncSegment()) return false;
  if (!WriteCheckpoint(builder, rng, rows)) return false;
  if (!segment_->Close()) return Fail(segment_->error());
  const std::string old_path = segment_path_;
  if (!OpenSegment(rows)) return false;
  // A checkpoint at the segment's own first row (recovery republishing,
  // or two barriers with no rows between) reopens the SAME path;
  // removing it would unlink the active segment out from under its fd.
  if (old_path != segment_path_) {
    std::error_code ec;
    std::filesystem::remove(old_path, ec);
  }
  std::string reason;
  if (!util::SyncDir(options_.dir, &reason)) return Fail(reason);
  return true;
}

bool Wal::FlushBuffer() {
  if (buffer_.empty()) return true;
  if (!segment_->Write(buffer_.data(), buffer_.size())) {
    buffer_.clear();
    return Fail(segment_->error());
  }
  buffer_.clear();
  return true;
}

bool Wal::SyncSegment() {
  const auto start = std::chrono::steady_clock::now();
  if (!segment_->Sync()) return Fail(segment_->error());
  fsync_metric_->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  records_since_sync_ = 0;
  return true;
}

bool Wal::OpenSegment(std::uint64_t first_row) {
  segment_path_ = options_.dir + "/" + SegmentFileName(first_row);
  segment_ = options_.sink_factory
                 ? options_.sink_factory(segment_path_)
                 : std::make_unique<util::PosixFileSink>(segment_path_);
  const std::string header = EncodeSegmentHeader(d_, first_row);
  if (!segment_->Write(header.data(), header.size()) || !segment_->Sync()) {
    return Fail(segment_->error());
  }
  std::string reason;
  if (!util::SyncDir(options_.dir, &reason)) return Fail(reason);
  buffer_.clear();
  segment_bytes_ = header.size();
  segment_bytes_metric_->Set(static_cast<std::int64_t>(segment_bytes_));
  records_since_sync_ = 0;
  return true;
}

bool Wal::WriteCheckpoint(const sketch::StreamingBuilder& builder,
                          const util::Rng& rng, std::uint64_t rows) {
  const std::string bytes =
      EncodeCheckpoint(algorithm_, params_, d_, seed_, rows, rng.SaveState(),
                       builder.SaveState());
  std::string reason;
  if (!util::WriteFileAtomic(options_.dir + "/" + kCheckpointName,
                             bytes.data(), bytes.size(), &reason,
                             options_.sink_factory)) {
    return Fail(reason);
  }
  return true;
}

// ------------------------------------------------------------ fsck walk

WalFsckReport VerifyWalDir(const std::string& dir) {
  WalFsckReport report;
  auto fail = [&report](const std::string& located) {
    report.ok = false;
    report.failures.push_back(located);
  };

  std::uint64_t next_row = 0;
  std::uint64_t expected_d = 0;
  std::error_code ec;
  const std::string ckpt_path = dir + "/" + kCheckpointName;
  if (std::filesystem::exists(ckpt_path, ec)) {
    std::string bytes, reason;
    CheckpointData ckpt;
    if (!ReadWholeFile(ckpt_path, &bytes, &reason) ||
        !DecodeCheckpoint(ckpt_path, bytes, &ckpt, &reason)) {
      fail(reason);
    } else {
      next_row = ckpt.rows;
      expected_d = ckpt.d;
      // The saved builder state must decode for the algorithm the
      // checkpoint names -- otherwise recovery would refuse it.
      sketch::SketchFile probe;
      probe.algorithm = ckpt.algorithm;
      probe.params = ckpt.params;
      probe.n = ckpt.rows;
      probe.d = static_cast<std::size_t>(ckpt.d);
      auto algorithm = sketch::ResolveAlgorithm(probe);
      const auto* streaming =
          dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
      if (streaming == nullptr) {
        fail(At(ckpt_path, 8,
                "unknown or non-streaming algorithm: " + ckpt.algorithm));
      } else {
        util::Rng rng(ckpt.seed);
        auto builder = streaming->NewBuilder(
            static_cast<std::size_t>(ckpt.d), ckpt.params, rng);
        if (!builder->RestoreState(ckpt.builder_state)) {
          fail(At(ckpt_path, 0, "builder state does not decode"));
        } else if (builder->rows_seen() != ckpt.rows) {
          fail(At(ckpt_path, 0,
                  "builder state row count disagrees with the header"));
        }
      }
    }
  } else if (!std::filesystem::exists(dir, ec)) {
    fail(dir + ": byte 0: no such directory");
    return report;
  } else {
    report.notes.push_back(dir + ": no checkpoint (nothing published yet)");
  }

  std::vector<SegmentInfo> segments;
  std::string reason;
  if (!ListSegments(dir, &segments, &reason)) {
    fail(reason);
    return report;
  }
  ReplayResult replay;
  replay.next_row = next_row;
  if (!ReplaySegments(segments, expected_d, nullptr, &replay, &reason)) {
    fail(reason);
  }
  for (const std::string& note : replay.torn_notes) {
    report.notes.push_back(note + " (recoverable torn tail)");
  }
  if (std::filesystem::exists(ckpt_path + ".tmp", ec)) {
    report.notes.push_back(ckpt_path +
                           ".tmp: leftover temp file (crash mid-checkpoint; "
                           "superseded and ignored)");
  }
  return report;
}

}  // namespace ifsketch::ingest
