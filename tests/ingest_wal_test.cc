// WAL durability contract (ingest/wal.h): for EVERY registered
// streaming algorithm, a process killed at ANY byte and restarted on
// the same directory continues bit-identically to an unbroken run over
// the recovered row prefix. The die-at-byte-N matrix drives the Wal
// through util::FaultyFileSink so every segment/checkpoint byte is a
// crash point without forking processes; the torn-tail fuzz mutates the
// on-disk files directly and requires recovery to either refuse cleanly
// or restore an exact prefix -- never crash, never over-replay.

#include "ingest/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sketch.h"
#include "data/generators.h"
#include "engine.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/streaming.h"
#include "util/bitvector.h"
#include "util/durable.h"
#include "util/random.h"

namespace ifsketch::ingest {
namespace {

constexpr std::size_t kD = 24;
constexpr std::uint64_t kSeed = 17;

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// A fresh (builder, rng) pair for one run -- the same shape
/// IngestService owns. The rng member is the one the builder draws
/// from, so Wal::Open can restore into both.
struct Stream {
  explicit Stream(const std::string& name, std::uint64_t seed = kSeed)
      : algorithm(sketch::BuiltinRegistry().Create(name)), rng(seed) {
    const auto* streaming =
        dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
    if (streaming != nullptr) {
      builder = streaming->NewBuilder(kD, Params(), rng);
    }
  }
  std::unique_ptr<core::SketchAlgorithm> algorithm;
  util::Rng rng;
  std::unique_ptr<sketch::StreamingBuilder> builder;
};

std::vector<std::string> StreamingAlgorithms() {
  std::vector<std::string> names;
  for (const auto& name : Engine::KnownAlgorithms()) {
    const auto algorithm = sketch::BuiltinRegistry().Create(name);
    if (dynamic_cast<const sketch::StreamingSketch*>(algorithm.get()) !=
        nullptr) {
      names.push_back(name);
    }
  }
  return names;
}

/// Fresh, empty directory under the test tmpdir.
std::string Dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "ifsketch_wal_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

core::Database MakeRows(std::size_t rows, std::uint64_t data_seed = 99) {
  util::Rng rng(data_seed);
  return data::UniformRandom(rows, kD, 0.3, rng);
}

WalOptions Options(const std::string& dir,
                   WalSyncPolicy sync = WalSyncPolicy::kEveryRecord) {
  WalOptions options;
  options.dir = dir;
  options.sync = sync;
  return options;
}

bool SameRngState(const util::Rng& a, const util::Rng& b) {
  const util::Rng::State sa = a.SaveState();
  const util::Rng::State sb = b.SaveState();
  return std::memcmp(sa.s, sb.s, sizeof(sa.s)) == 0 &&
         sa.have_cached_gaussian == sb.have_cached_gaussian &&
         sa.cached_gaussian == sb.cached_gaussian;
}

/// The canonical per-prefix states of an unbroken run: states[r] is the
/// builder SaveState after observing rows [0, r), rng_states[r]
/// likewise. Recovery at any prefix must land exactly here.
struct PrefixStates {
  std::vector<util::BitVector> builder;
  std::vector<util::Rng::State> rng;
};

PrefixStates ComputePrefixStates(const std::string& algorithm,
                                 const core::Database& db) {
  Stream s(algorithm);
  PrefixStates states;
  states.builder.push_back(s.builder->SaveState());
  states.rng.push_back(s.rng.SaveState());
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    s.builder->Observe(db.Row(i));
    states.builder.push_back(s.builder->SaveState());
    states.rng.push_back(s.rng.SaveState());
  }
  return states;
}

void ExpectAtPrefix(const Stream& s, const PrefixStates& expect,
                    std::uint64_t rows) {
  ASSERT_LT(rows, expect.builder.size());
  EXPECT_TRUE(s.builder->SaveState() == expect.builder[rows])
      << "builder state diverges from the unbroken " << rows << "-row run";
  util::Rng want(0);
  want.RestoreState(expect.rng[rows]);
  EXPECT_TRUE(SameRngState(s.rng, want))
      << "rng state diverges from the unbroken " << rows << "-row run";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalSyncPolicyTest, NamesRoundTripThroughParse) {
  for (const auto policy :
       {WalSyncPolicy::kEveryRecord, WalSyncPolicy::kEveryN,
        WalSyncPolicy::kOnSnapshot}) {
    WalSyncPolicy parsed;
    ASSERT_TRUE(ParseWalSyncPolicy(WalSyncPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  WalSyncPolicy ignored;
  EXPECT_FALSE(ParseWalSyncPolicy("", &ignored));
  EXPECT_FALSE(ParseWalSyncPolicy("fsync", &ignored));
  EXPECT_FALSE(ParseWalSyncPolicy("EVERY_RECORD", &ignored));
}

TEST(WalTest, FreshDirectoryRecoversNothing) {
  const std::string dir = Dir("fresh");
  Stream s("STREAM-SUBSAMPLE");
  WalRecovery recovery;
  std::string error;
  auto wal = Wal::Open(Options(dir), "STREAM-SUBSAMPLE", Params(), kD, kSeed,
                       s.builder.get(), &s.rng, &recovery, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(recovery.rows, 0u);
  EXPECT_EQ(recovery.checkpoint_rows, 0u);
  EXPECT_EQ(recovery.replayed_rows, 0u);
  EXPECT_EQ(recovery.truncated_bytes, 0u);
  EXPECT_TRUE(wal->ok());
}

TEST(WalTest, OpenRejectsBadOptions) {
  Stream s("STREAM-SUBSAMPLE");
  std::string error;
  WalOptions no_dir;
  EXPECT_EQ(Wal::Open(no_dir, "STREAM-SUBSAMPLE", Params(), kD, kSeed,
                      s.builder.get(), &s.rng, nullptr, &error),
            nullptr);
  EXPECT_FALSE(error.empty());

  WalOptions bad_n = Options(Dir("bad_n"), WalSyncPolicy::kEveryN);
  bad_n.sync_every = 0;
  error.clear();
  EXPECT_EQ(Wal::Open(bad_n, "STREAM-SUBSAMPLE", Params(), kD, kSeed,
                      s.builder.get(), &s.rng, nullptr, &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// The core durability contract, per registered streaming algorithm:
// restart on the same directory, land exactly where the unbroken run
// stood, then CONTINUE and stay bit-identical to the unbroken run.
TEST(WalTest, RecoveryThenResumeIsBitIdenticalForEveryAlgorithm) {
  constexpr std::size_t kTotal = 400;
  constexpr std::size_t kCrashAt = 277;  // off-cadence: replay has a tail
  constexpr std::size_t kEvery = 100;
  const core::Database db = MakeRows(kTotal);

  const auto algorithms = StreamingAlgorithms();
  ASSERT_FALSE(algorithms.empty());
  for (const auto& algorithm : algorithms) {
    SCOPED_TRACE(algorithm);
    const std::string dir = Dir("resume_" + algorithm);
    const PrefixStates expect = ComputePrefixStates(algorithm, db);

    {
      Stream a(algorithm);
      std::string error;
      auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                           a.builder.get(), &a.rng, nullptr, &error);
      ASSERT_NE(wal, nullptr) << error;
      for (std::size_t i = 0; i < kCrashAt; ++i) {
        ASSERT_TRUE(wal->Append(db.Row(i)));
        a.builder->Observe(db.Row(i));
        if ((i + 1) % kEvery == 0) {
          ASSERT_TRUE(wal->Checkpoint(*a.builder, a.rng, i + 1));
        }
      }
    }  // destructor flushes; every_record already fsynced each row

    Stream b(algorithm);
    WalRecovery recovery;
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         b.builder.get(), &b.rng, &recovery, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_EQ(recovery.rows, kCrashAt);
    EXPECT_EQ(recovery.checkpoint_rows, (kCrashAt / kEvery) * kEvery);
    EXPECT_EQ(recovery.replayed_rows, kCrashAt % kEvery);
    EXPECT_EQ(b.builder->rows_seen(), kCrashAt);
    ExpectAtPrefix(b, expect, kCrashAt);

    // Resume: the recovered run and the unbroken run must stay
    // indistinguishable to the end of the stream.
    for (std::size_t i = kCrashAt; i < kTotal; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      b.builder->Observe(db.Row(i));
    }
    ASSERT_TRUE(wal->Checkpoint(*b.builder, b.rng, kTotal));
    ExpectAtPrefix(b, expect, kTotal);
    Stream unbroken(algorithm);
    for (std::size_t i = 0; i < kTotal; ++i) {
      unbroken.builder->Observe(db.Row(i));
    }
    EXPECT_TRUE(b.builder->Summary() == unbroken.builder->Summary());
  }
}

// Die-at-byte-N matrix: crash the WAL at a stride of byte budgets
// covering the whole file traffic of a run. Whatever the crash point,
// a clean reopen must restore an exact prefix of the pushed rows -- at
// least everything a successful Checkpoint covered -- and land
// bit-identically on the unbroken run's state at that prefix.
TEST(WalTest, DieAtAnyByteRecoversAnExactPrefix) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  constexpr std::size_t kTotal = 120;
  constexpr std::size_t kEvery = 40;
  const core::Database db = MakeRows(kTotal, 7);
  const PrefixStates expect = ComputePrefixStates(algorithm, db);

  // Baseline run with an unreachable budget measures the total bytes a
  // full run writes, so the stride covers every phase of the traffic.
  std::uint64_t total_bytes = 0;
  {
    const std::string dir = Dir("die_baseline");
    auto plan = std::make_shared<util::CrashPlan>(1u << 30);
    WalOptions options = Options(dir);
    options.sink_factory = util::MakeFaultyFileSinkFactory(plan);
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(options, algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
      if ((i + 1) % kEvery == 0) {
        ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, i + 1));
      }
    }
    total_bytes = (1u << 30) -
                  static_cast<std::uint64_t>(
                      plan->remaining.load(std::memory_order_relaxed));
    ASSERT_GT(total_bytes, 0u);
  }

  // Prime-sized stride so the crash points sweep across record,
  // checkpoint and header offsets instead of hitting one phase.
  const std::uint64_t stride = total_bytes / 97 + 1;
  for (std::uint64_t budget = 0; budget <= total_bytes; budget += stride) {
    SCOPED_TRACE("crash after " + std::to_string(budget) + " bytes");
    const std::string dir = Dir("die_" + std::to_string(budget));
    auto plan = std::make_shared<util::CrashPlan>(budget);
    WalOptions options = Options(dir);
    options.sink_factory = util::MakeFaultyFileSinkFactory(plan);

    std::uint64_t pushed = 0;     // rows handed to Append (pre- or post-crash)
    std::uint64_t durable = 0;    // rows covered by a successful Checkpoint
    {
      Stream s(algorithm);
      std::string error;
      auto wal = Wal::Open(options, algorithm, Params(), kD, kSeed,
                           s.builder.get(), &s.rng, nullptr, &error);
      if (wal != nullptr) {
        for (std::size_t i = 0; i < kTotal; ++i) {
          ++pushed;
          if (!wal->Append(db.Row(i))) break;
          s.builder->Observe(db.Row(i));
          if ((i + 1) % kEvery == 0) {
            if (wal->Checkpoint(*s.builder, s.rng, i + 1)) durable = i + 1;
          }
        }
      }  // wal == nullptr: crashed during recovery's own writes
    }

    Stream r(algorithm);
    WalRecovery recovery;
    std::string error;
    auto reopened = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                              r.builder.get(), &r.rng, &recovery, &error);
    ASSERT_NE(reopened, nullptr)
        << "recovery must always succeed after a crash: " << error;
    EXPECT_GE(recovery.rows, durable)
        << "a successful Checkpoint promised durability";
    EXPECT_LE(recovery.rows, pushed) << "recovered rows nobody pushed";
    ExpectAtPrefix(r, expect, recovery.rows);

    // And the recovered run accepts new appends: the directory is
    // pristine again no matter where the crash landed.
    ASSERT_TRUE(reopened->ok());
    ASSERT_TRUE(reopened->Append(db.Row(0)));
  }
}

// Torn-tail fuzz: mutate the segment file (flip / truncate / extend) of
// a cleanly written log. Recovery must never crash and never invent
// rows: either it refuses with a located reason, or it restores an
// exact prefix no shorter than the checkpoint.
TEST(WalTest, TornTailFuzzNeverOverReplays) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  constexpr std::size_t kTotal = 60;
  constexpr std::size_t kCheckpointAt = 30;
  const core::Database db = MakeRows(kTotal, 11);
  const PrefixStates expect = ComputePrefixStates(algorithm, db);
  const std::string dir = Dir("fuzz");

  {
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
      if (i + 1 == kCheckpointAt) {
        ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, i + 1));
      }
    }
  }

  // Locate the one live segment and keep pristine copies of the whole
  // directory so every round starts from the same bytes.
  std::string segment_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      EXPECT_TRUE(segment_path.empty()) << "expected a single segment";
      segment_path = entry.path().string();
    }
  }
  ASSERT_FALSE(segment_path.empty());
  const std::string pristine = ReadFileBytes(segment_path);
  ASSERT_GT(pristine.size(), 0u);

  util::Rng fuzz(123);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(round);
    std::string mutated = pristine;
    switch (fuzz.UniformInt(3)) {
      case 0:  // truncate anywhere, including mid-header
        mutated.resize(static_cast<std::size_t>(
            fuzz.UniformInt(mutated.size() + 1)));
        break;
      case 1: {  // flip one byte anywhere
        const std::size_t at =
            static_cast<std::size_t>(fuzz.UniformInt(mutated.size()));
        mutated[at] = static_cast<char>(
            mutated[at] ^ static_cast<char>(1 + fuzz.UniformInt(255)));
        break;
      }
      default: {  // append garbage that is not a valid frame
        const std::size_t extra =
            static_cast<std::size_t>(1 + fuzz.UniformInt(32));
        for (std::size_t i = 0; i < extra; ++i) {
          mutated.push_back(static_cast<char>(fuzz.UniformInt(256)));
        }
        break;
      }
    }
    WriteFileBytes(segment_path, mutated);

    Stream r(algorithm);
    WalRecovery recovery;
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         r.builder.get(), &r.rng, &recovery, &error);
    if (wal == nullptr) {
      EXPECT_FALSE(error.empty());
    } else {
      EXPECT_GE(recovery.rows, kCheckpointAt);
      EXPECT_LE(recovery.rows, kTotal);
      ExpectAtPrefix(r, expect, recovery.rows);
    }

    // Restore the directory: recovery rewrote the checkpoint and pruned
    // segments, so rebuild the canonical layout for the next round.
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      Stream s(algorithm);
      auto rebuild = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                               s.builder.get(), &s.rng, nullptr, &error);
      ASSERT_NE(rebuild, nullptr) << error;
      for (std::size_t i = 0; i < kTotal; ++i) {
        ASSERT_TRUE(rebuild->Append(db.Row(i)));
        s.builder->Observe(db.Row(i));
        if (i + 1 == kCheckpointAt) {
          ASSERT_TRUE(rebuild->Checkpoint(*s.builder, s.rng, i + 1));
        }
      }
    }
    segment_path.clear();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".seg") {
        segment_path = entry.path().string();
      }
    }
    ASSERT_FALSE(segment_path.empty());
  }
}

// A flipped byte in the atomically-written checkpoint is genuine
// corruption: recovery must refuse (never serve a mangled state), and
// fsck must fail the directory.
TEST(WalTest, CorruptCheckpointIsRefusedNotServed) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  const core::Database db = MakeRows(20, 13);
  const std::string dir = Dir("bad_ckpt");
  {
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, db.num_rows()));
  }
  const std::string ckpt = dir + "/checkpoint.ifwc";
  std::string bytes = ReadFileBytes(ckpt);
  ASSERT_GT(bytes.size(), 40u);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x20);
  WriteFileBytes(ckpt, bytes);

  Stream r(algorithm);
  std::string error;
  EXPECT_EQ(Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                      r.builder.get(), &r.rng, nullptr, &error),
            nullptr);
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;

  const WalFsckReport report = VerifyWalDir(dir);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.failures.empty());
  EXPECT_NE(report.failures[0].find("byte"), std::string::npos);
}

// Regression: a checkpoint (or recovery) landing at the current
// segment's own first row re-creates the SAME segment path; the
// rotation must not unlink the file it just reopened, or every
// subsequent append silently vanishes.
TEST(WalTest, RecoveryRepublishKeepsTheActiveSegment) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  constexpr std::size_t kFirst = 10;
  constexpr std::size_t kTotal = 30;
  const core::Database db = MakeRows(kTotal, 21);
  const PrefixStates expect = ComputePrefixStates(algorithm, db);
  const std::string dir = Dir("republish");

  {
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < kFirst; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, kFirst));
  }

  // Reopen: recovery re-checkpoints at kFirst and reopens
  // wal-<kFirst>.seg -- the same name the pre-crash rotation created.
  // Rows appended through the recovered log must survive ANOTHER
  // restart.
  {
    Stream s(algorithm);
    WalRecovery recovery;
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, &recovery, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_EQ(recovery.rows, kFirst);
    for (std::size_t i = kFirst; i < kTotal; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
    // Same-row double checkpoint: rotation onto the segment's own name.
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, kTotal));
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, kTotal));
    ASSERT_TRUE(wal->Append(db.Row(0)));  // lands in the re-created segment
  }

  Stream r(algorithm);
  WalRecovery recovery;
  std::string error;
  auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                       r.builder.get(), &r.rng, &recovery, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(recovery.rows, kTotal + 1);
  EXPECT_EQ(r.builder->rows_seen(), kTotal + 1);
}

// After every checkpoint the superseded segment is pruned: the
// directory never accumulates history it will not replay.
TEST(WalTest, RotationPrunesToASingleSegment) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  const core::Database db = MakeRows(90, 31);
  const std::string dir = Dir("prune");
  Stream s(algorithm);
  std::string error;
  auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                       s.builder.get(), &s.rng, nullptr, &error);
  ASSERT_NE(wal, nullptr) << error;
  for (std::size_t i = 0; i < db.num_rows(); ++i) {
    ASSERT_TRUE(wal->Append(db.Row(i)));
    s.builder->Observe(db.Row(i));
    if ((i + 1) % 30 == 0) {
      ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, i + 1));
      std::size_t segments = 0;
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        segments += entry.path().extension() == ".seg" ? 1 : 0;
      }
      EXPECT_EQ(segments, 1u);
    }
  }
}

TEST(WalTest, ForeignIdentityIsRefused) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  const core::Database db = MakeRows(10, 41);
  const std::string dir = Dir("identity");
  {
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, db.num_rows()));
  }

  {  // different seed
    Stream r(algorithm, kSeed + 1);
    std::string error;
    EXPECT_EQ(Wal::Open(Options(dir), algorithm, Params(), kD, kSeed + 1,
                        r.builder.get(), &r.rng, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("identity"), std::string::npos) << error;
  }
  {  // different algorithm
    Stream r("STREAM-STRATIFIED");
    std::string error;
    EXPECT_EQ(Wal::Open(Options(dir), "STREAM-STRATIFIED", Params(), kD,
                        kSeed, r.builder.get(), &r.rng, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("identity"), std::string::npos) << error;
  }
  {  // different parameters
    Stream r(algorithm);
    core::SketchParams other = Params();
    other.eps = 0.05;
    std::string error;
    EXPECT_EQ(Wal::Open(Options(dir), algorithm, other, kD, kSeed,
                        r.builder.get(), &r.rng, nullptr, &error),
              nullptr);
    EXPECT_NE(error.find("identity"), std::string::npos) << error;
  }
}

TEST(WalTest, VerifyWalDirDistinguishesTornFromCorrupt) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  const core::Database db = MakeRows(40, 51);
  const std::string dir = Dir("fsck");
  {
    Stream s(algorithm);
    std::string error;
    auto wal = Wal::Open(Options(dir), algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
      if (i + 1 == 20) {
        ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, 20));
      }
    }
  }

  // Healthy: ok, no failures.
  WalFsckReport report = VerifyWalDir(dir);
  EXPECT_TRUE(report.ok) << (report.failures.empty()
                                 ? ""
                                 : report.failures[0]);
  EXPECT_TRUE(report.failures.empty());

  // Shear the live segment mid-record: recoverable, noted, still ok.
  std::string segment_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".seg") {
      segment_path = entry.path().string();
    }
  }
  ASSERT_FALSE(segment_path.empty());
  const std::string bytes = ReadFileBytes(segment_path);
  ASSERT_GT(bytes.size(), 5u);
  WriteFileBytes(segment_path, bytes.substr(0, bytes.size() - 5));
  report = VerifyWalDir(dir);
  EXPECT_TRUE(report.ok);
  bool torn_note = false;
  for (const auto& note : report.notes) {
    torn_note |= note.find("torn") != std::string::npos;
  }
  EXPECT_TRUE(torn_note);

  // Missing directory: a failure, not a silent ok.
  report = VerifyWalDir(dir + "_missing");
  EXPECT_FALSE(report.ok);
}

TEST(WalTest, MetricsCountRecordsReplayAndSegmentBytes) {
  const std::string algorithm = "STREAM-SUBSAMPLE";
  constexpr std::size_t kRows = 25;
  const core::Database db = MakeRows(kRows, 61);
  const std::string dir = Dir("metrics");

  obs::MetricsRegistry write_registry;
  {
    Stream s(algorithm);
    WalOptions options = Options(dir);
    options.registry = &write_registry;
    std::string error;
    auto wal = Wal::Open(options, algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, nullptr, &error);
    ASSERT_NE(wal, nullptr) << error;
    for (std::size_t i = 0; i < kRows; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
    ASSERT_TRUE(wal->Checkpoint(*s.builder, s.rng, kRows));
  }
  EXPECT_EQ(write_registry.GetCounter("wal_records_total")->Value(), kRows);
  EXPECT_EQ(write_registry.GetCounter("recovery_replayed_rows_total")->Value(),
            0u);
  EXPECT_GT(write_registry.GetHistogram("wal_fsync_ns")->Snapshot().count, 0u);

  // Reopen WITHOUT the final checkpoint... the checkpoint covered all
  // rows, so force a replay tail by appending a few more without one.
  {
    Stream s(algorithm);
    WalOptions options = Options(dir);
    options.registry = &write_registry;
    std::string error;
    WalRecovery recovery;
    auto wal = Wal::Open(options, algorithm, Params(), kD, kSeed,
                         s.builder.get(), &s.rng, &recovery, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_EQ(recovery.rows, kRows);
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(wal->Append(db.Row(i)));
      s.builder->Observe(db.Row(i));
    }
  }

  obs::MetricsRegistry recover_registry;
  Stream r(algorithm);
  WalOptions options = Options(dir);
  options.registry = &recover_registry;
  std::string error;
  WalRecovery recovery;
  auto wal = Wal::Open(options, algorithm, Params(), kD, kSeed,
                       r.builder.get(), &r.rng, &recovery, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(recovery.rows, kRows + 5);
  EXPECT_EQ(recovery.replayed_rows, 5u);
  EXPECT_EQ(
      recover_registry.GetCounter("recovery_replayed_rows_total")->Value(),
      5u);
}

// End to end through IngestService: a service restarted on its WAL
// directory republishes the recovered state immediately and keeps the
// ABSOLUTE row counter, so every snapshot it serves afterwards is
// bit-identical to what an unbroken service (and a one-shot
// Engine::Build over the same prefix) would serve.
TEST(WalTest, IngestServiceRestartServesBitIdenticalSnapshots) {
  constexpr std::size_t kTotal = 3000;
  constexpr std::size_t kBreakAt = 2500;
  constexpr std::size_t kEvery = 1000;
  const core::Database db = MakeRows(kTotal, 71);
  const std::string dir = Dir("service");

  IngestOptions options;
  options.algorithm = "STREAM-SUBSAMPLE";
  options.params = Params();
  options.d = kD;
  options.seed = kSeed;
  options.rows_per_snapshot = kEvery;
  options.wal_dir = dir;
  options.wal_sync = WalSyncPolicy::kOnSnapshot;

  {
    std::uint64_t last_published = 0;
    auto service = IngestService::Create(
        options, [&](std::shared_ptr<const Engine>, std::uint64_t rows) {
          last_published = rows;
        });
    ASSERT_NE(service, nullptr);
    for (std::size_t i = 0; i < kBreakAt; ++i) service->Push(db.Row(i));
    service->Finish();  // final partial publish checkpoints at kBreakAt
    EXPECT_FALSE(service->wal_failed());
    EXPECT_EQ(last_published, kBreakAt);
  }

  std::vector<std::pair<std::shared_ptr<const Engine>, std::uint64_t>>
      published;
  {
    auto service = IngestService::Create(
        options, [&](std::shared_ptr<const Engine> engine,
                     std::uint64_t rows) {
          published.emplace_back(std::move(engine), rows);
        });
    ASSERT_NE(service, nullptr);
    EXPECT_EQ(service->recovery().rows, kBreakAt);
    // The recovered state is published by the time Create returns.
    ASSERT_EQ(published.size(), 1u);
    EXPECT_EQ(published[0].second, kBreakAt);
    for (std::size_t i = kBreakAt; i < kTotal; ++i) service->Push(db.Row(i));
    service->Finish();
    EXPECT_EQ(service->rows_ingested(), kTotal);
    EXPECT_FALSE(service->wal_failed());
  }
  // The recovered 2500-row snapshot first, then the cadence snapshot at
  // 3000 -- the row counter is absolute, not since-restart.
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(published[0].second, kBreakAt);
  EXPECT_EQ(published[1].second, kTotal);

  std::vector<core::Itemset> queries;
  {
    util::Rng qrng(404);
    for (std::size_t i = 0; i < 60; ++i) {
      core::Itemset t(kD);
      t.Add(static_cast<std::size_t>(qrng.UniformInt(kD)));
      t.Add(static_cast<std::size_t>(qrng.UniformInt(kD)));
      queries.push_back(std::move(t));
    }
  }
  for (const auto& [snapshot, rows] : published) {
    SCOPED_TRACE(rows);
    ASSERT_NE(snapshot, nullptr);
    core::Database prefix(0, kD);
    for (std::uint64_t i = 0; i < rows; ++i) prefix.AppendRow(db.Row(i));
    util::Rng build_rng(kSeed);
    const auto direct =
        Engine::Build(prefix, options.algorithm, Params(), build_rng);
    ASSERT_TRUE(direct.has_value());
    std::vector<double> snapshot_f, direct_f;
    snapshot->estimate_many(queries, &snapshot_f);
    direct->estimate_many(queries, &direct_f);
    EXPECT_EQ(snapshot_f, direct_f);  // bitwise: no tolerance
  }
}

}  // namespace
}  // namespace ifsketch::ingest
