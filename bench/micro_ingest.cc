// micro_ingest: streaming ingest on the perf trajectory.
//
//   micro_ingest --json [out.json] [--rows 60000] [--batch 1000]
//                [--rounds 30]
//
// Four kernels in the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}:
//
//   ingest_rows   ns per row through the full pipeline (SPSC ring ->
//                 ingest thread -> builder Observe), producer + ingest
//                 thread; `batch` is the length of each timed stream,
//                 the reciprocal is rows/s sustained.
//   ingest_rows@wal_sync=<policy>
//                 the same pipeline with the write-ahead log enabled
//                 under each sync policy (ingest/wal.h). Acceptance
//                 bar: on_snapshot (the server default) must stay
//                 within 1.2x of the no-WAL ingest_rows number, or the
//                 bench exits nonzero. The two run as paired blocks (see
//                 bench_util.h): each block streams rows/4 rows through
//                 a fresh service that publishes -- and, with the WAL,
//                 checkpoints -- once at its end, the snapshot density
//                 of the full-stream runs, and the gate fails only when
//                 the 99% lower confidence bound on the median per-pair
//                 ratio exceeds 1.2.
//   publish       ns per snapshot publication: builder Summary ->
//                 Engine::FromFile (the in-memory image, column section
//                 transposed) -> SketchPod::Publish swap.
//   query_idle    ns per estimate_many query against a published
//                 snapshot with no ingest running (the baseline).
//   query_steady  the same queries while the ingest thread churns rows
//                 and publishes into the same pod -- the build-while-
//                 serve number; `threads` counts the query thread plus
//                 the ingest thread.
//
// Every run also asserts the ingest invariant: the first published
// snapshot answers estimate_many bit-identically to a one-shot
// Engine::Build over the same row prefix with the same seed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "engine.h"
#include "scratch_dir.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "serve/pod.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_file.h"
#include "sketch/streaming.h"
#include "util/random.h"

namespace {

using namespace ifsketch;
using bench::Params;
using bench::ElapsedNs;
using bench::Row;

constexpr std::size_t kColumns = 32;
constexpr std::uint64_t kSeed = 7;

ingest::IngestOptions Options(std::size_t rows_per_snapshot) {
  ingest::IngestOptions options;
  options.algorithm = "STREAM-SUBSAMPLE";
  options.params = Params();
  options.d = kColumns;
  options.seed = kSeed;
  options.rows_per_snapshot = rows_per_snapshot;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t stream_rows = 60000;
  std::size_t batch = 1000;
  std::size_t rounds = 30;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::ConsumeJsonFlag(argc, argv, &i, &out_path)) continue;
    if (arg == "--rows" && i + 1 < argc) {
      stream_rows =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_ingest --json [out.json] [--rows 60000] "
                   "[--batch 1000] [--rounds 30]\n");
      return 2;
    }
  }
  if (stream_rows < 2000 || batch == 0 || rounds == 0) {
    std::fprintf(stderr,
                 "error: --rows (>= 2000), --batch and --rounds need "
                 "positive values\n");
    return 2;
  }

  // The WAL directories live here, removed on every exit path.
  const bench::ScratchDir scratch("micro_ingest_");
  if (!scratch.ok()) {
    std::fprintf(stderr, "error: cannot create a scratch directory\n");
    return 1;
  }
  util::Rng rng(71);
  const core::Database db =
      data::PowerLawBaskets(stream_rows, kColumns, 1.0, 0.5, 4, 3, 0.2, rng);
  util::Rng query_rng(101);
  const auto queries = bench::RandomQueries(kColumns, batch, query_rng);
  std::vector<Row> rows;

  // -- invariant check: first snapshot == one-shot build over the prefix.
  {
    const std::size_t prefix = stream_rows / 2;
    std::shared_ptr<const Engine> snapshot;
    {
      auto service = ingest::IngestService::Create(
          Options(prefix),
          [&](std::shared_ptr<const Engine> engine, std::uint64_t published) {
            if (published == prefix) snapshot = std::move(engine);
          });
      for (std::size_t i = 0; i < db.num_rows(); ++i) {
        service->Push(db.Row(i));
      }
      service->Finish();
    }
    core::Database prefix_db(0, kColumns);
    for (std::size_t i = 0; i < prefix; ++i) prefix_db.AppendRow(db.Row(i));
    util::Rng build_rng(kSeed);
    const auto direct =
        Engine::Build(prefix_db, "STREAM-SUBSAMPLE", Params(), build_rng);
    std::vector<double> from_snapshot, from_direct;
    snapshot->estimate_many(queries, &from_snapshot);
    direct->estimate_many(queries, &from_direct);
    if (from_snapshot != from_direct) {
      std::fprintf(stderr,
                   "error: published snapshot diverged from one-shot "
                   "build over the same prefix\n");
      return 1;
    }
  }

  // -- ingest_rows vs ingest_rows@wal_sync=on_snapshot: the WAL gate,
  // on paired blocks. A block streams the first rows/4 rows through a
  // fresh service, with or without a WAL (each WAL block in a directory
  // of its own, removed after it), and publishes once at its end.
  constexpr std::size_t kWalPairs = 30;
  const std::size_t block_rows = stream_rows / 4;
  std::size_t wal_blocks = 0;
  bool wal_ok = true;
  const auto ingest_block = [&](bool wal) {
    ingest::IngestOptions options = Options(block_rows);
    if (wal) {
      options.wal_dir =
          scratch.File("wal_block_" + std::to_string(wal_blocks++));
      options.wal_sync = ingest::WalSyncPolicy::kOnSnapshot;
    }
    auto service = ingest::IngestService::Create(
        options, [](std::shared_ptr<const Engine>, std::uint64_t) {});
    if (service == nullptr) {
      wal_ok = false;
      return 1.0;
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < block_rows; ++i) service->Push(db.Row(i));
    service->Finish();
    const double ns = ElapsedNs(start);
    wal_ok = wal_ok && !service->wal_failed();
    service.reset();
    if (wal) std::filesystem::remove_all(options.wal_dir);
    return ns;
  };
  ingest_block(false);  // warm both sides once
  ingest_block(true);
  const bench::PairedRatio wal_tax = bench::RunPairedBlocks(
      kWalPairs, [&] { return ingest_block(false); },
      [&] { return ingest_block(true); });
  if (!wal_ok) {
    std::fprintf(stderr, "error: WAL failed during the bench run\n");
    return 1;
  }
  const double timed_rows = static_cast<double>(kWalPairs * block_rows);
  rows.push_back(
      {"ingest_rows", 2, block_rows, wal_tax.baseline_ns / timed_rows});
  rows.push_back({"ingest_rows@wal_sync=on_snapshot", 2, block_rows,
                  wal_tax.candidate_ns / timed_rows});

  // -- ingest_rows@wal_sync=<the other policies>: the whole stream under
  // each, snapshotting (and therefore checkpointing) every rows/4 rows.
  for (const ingest::WalSyncPolicy policy :
       {ingest::WalSyncPolicy::kEveryN, ingest::WalSyncPolicy::kEveryRecord}) {
    const std::string wal_dir =
        scratch.File(std::string("wal_") + ingest::WalSyncPolicyName(policy));
    ingest::IngestOptions options = Options(block_rows);
    options.wal_dir = wal_dir;
    options.wal_sync = policy;
    auto service = ingest::IngestService::Create(
        options, [](std::shared_ptr<const Engine>, std::uint64_t) {});
    if (service == nullptr) {
      std::fprintf(stderr, "error: cannot open WAL in %s\n", wal_dir.c_str());
      return 1;
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < db.num_rows(); ++i) service->Push(db.Row(i));
    service->Finish();
    const double ns = ElapsedNs(start) / static_cast<double>(stream_rows);
    if (service->wal_failed()) {
      std::fprintf(stderr, "error: WAL failed during the bench run\n");
      return 1;
    }
    rows.push_back({std::string("ingest_rows@wal_sync=") +
                        ingest::WalSyncPolicyName(policy),
                    2, stream_rows, ns});
  }
  std::fprintf(stderr,
               "wal tax: on_snapshot / no-WAL per-pair median %.2fx, 99%% "
               "lower bound %.2fx over %zu pairs (bar: bound <= 1.2x)\n",
               wal_tax.median, wal_tax.lower_bound, kWalPairs);
  if (wal_tax.lower_bound > 1.2) {
    std::fprintf(stderr,
                 "error: on_snapshot WAL tax exceeds 1.2x the no-WAL "
                 "baseline\n");
    return 1;
  }

  // -- publish: Summary -> FromFile -> Publish, on a warmed builder --
  // exactly what the ingest thread does at every snapshot boundary.
  serve::SketchPod pod;
  pod.AddStream("bench");
  {
    auto algorithm = sketch::BuiltinRegistry().Create("STREAM-SUBSAMPLE");
    const auto* streaming =
        dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
    util::Rng builder_rng(kSeed);
    auto builder = streaming->NewBuilder(kColumns, Params(), builder_rng);
    for (std::size_t i = 0; i < db.num_rows(); ++i) {
      builder->Observe(db.Row(i));
    }
    // Per-round timings go through the shared obs histogram so the
    // percentiles printed here use the exact bucket/quantile math of
    // the server's ingest_publish_ns metric.
    obs::Histogram publish_hist;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      sketch::SketchFile file;
      file.algorithm = "STREAM-SUBSAMPLE";
      file.params = Params();
      file.n = builder->rows_seen();
      file.d = kColumns;
      file.summary = builder->Summary();
      auto engine = Engine::FromFile(file);
      pod.Publish("bench", std::make_shared<const Engine>(std::move(*engine)),
                  builder->rows_seen());
      publish_hist.Record(static_cast<std::uint64_t>(ElapsedNs(t0)));
    }
    rows.push_back(
        {"publish", 1, 1, ElapsedNs(start) / static_cast<double>(rounds)});
    const obs::HistogramSnapshot snap = publish_hist.Snapshot();
    std::fprintf(stderr,
                 "publish latency: p50=%llu ns p90=%llu ns p99=%llu ns "
                 "max=%llu ns (%llu rounds)\n",
                 static_cast<unsigned long long>(snap.Quantile(0.5)),
                 static_cast<unsigned long long>(snap.Quantile(0.9)),
                 static_cast<unsigned long long>(snap.Quantile(0.99)),
                 static_cast<unsigned long long>(snap.max),
                 static_cast<unsigned long long>(snap.count));
  }

  // -- query_idle: estimate_many against the resident snapshot, no churn.
  {
    auto engine = pod.Acquire("bench");
    std::vector<double> answers;
    engine->estimate_many(queries, &answers);  // warm the views
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      engine->estimate_many(queries, &answers);
    }
    rows.push_back({"query_idle", 1, batch,
                    ElapsedNs(start) /
                        static_cast<double>(rounds * batch)});
  }

  // -- query_steady: the same queries while ingest churns and publishes
  // into the same pod every 2000 rows.
  {
    std::atomic<bool> done{false};
    auto service = ingest::IngestService::Create(
        Options(2000),
        [&](std::shared_ptr<const Engine> engine, std::uint64_t published) {
          pod.Publish("bench", std::move(engine), published);
        });
    std::thread feeder([&] {
      // Cycle the stream until the query side finishes.
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t i = 0;
             i < db.num_rows() && !done.load(std::memory_order_acquire);
             ++i) {
          service->Push(db.Row(i));
        }
      }
    });
    std::vector<double> answers;
    pod.Acquire("bench")->estimate_many(queries, &answers);  // warm
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      // Re-acquire each round: steady-state monitors follow the live
      // snapshot, so the swap cost is part of the measured path.
      pod.Acquire("bench")->estimate_many(queries, &answers);
    }
    const double ns =
        ElapsedNs(start) / static_cast<double>(rounds * batch);
    done.store(true, std::memory_order_release);
    feeder.join();
    service->Finish();
    rows.push_back({"query_steady", 2, batch, ns});
  }

  return bench::WriteRows(rows, out_path) ? 0 : 1;
}
