#include "ingest/ingest.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "sketch/builtin_algorithms.h"
#include "sketch/sketch_file.h"
#include "util/check.h"

namespace ifsketch::ingest {
namespace {

obs::MetricsRegistry& ResolveRegistry(obs::MetricsRegistry* registry) {
  return registry != nullptr ? *registry : obs::MetricsRegistry::Default();
}

}  // namespace

std::unique_ptr<IngestService> IngestService::Create(
    const IngestOptions& options, PublishFn publish, std::string* error) {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (options.d == 0) return fail("ingest: d must be positive");
  if (!core::ValidSketchParams(options.params)) {
    return fail("ingest: invalid sketch parameters (k/eps/delta)");
  }
  if (options.rows_per_snapshot == 0) {
    return fail("ingest: rows_per_snapshot must be positive");
  }
  if (publish == nullptr) return fail("ingest: publish callback required");
  auto algorithm = sketch::BuiltinRegistry().Create(options.algorithm);
  if (algorithm == nullptr) {
    return fail("ingest: unknown algorithm " + options.algorithm);
  }
  const auto* streaming =
      dynamic_cast<const sketch::StreamingSketch*>(algorithm.get());
  if (streaming == nullptr) {
    return fail("ingest: " + options.algorithm +
                " does not support streaming construction");
  }
  if (!options.wal_dir.empty() && options.wal_sync == WalSyncPolicy::kEveryN &&
      options.wal_sync_every == 0) {
    return fail("ingest: wal_sync_every must be positive");
  }
  auto service = std::unique_ptr<IngestService>(new IngestService(
      options, std::move(publish), std::move(algorithm), streaming));
  if (!options.wal_dir.empty()) {
    WalOptions wal_options;
    wal_options.dir = options.wal_dir;
    wal_options.sync = options.wal_sync;
    wal_options.sync_every = options.wal_sync_every;
    wal_options.registry = options.registry;
    wal_options.sink_factory = options.wal_sink_factory;
    std::string wal_error;
    service->wal_ = Wal::Open(wal_options, options.algorithm, options.params,
                              options.d, options.seed,
                              service->builder_.get(), &service->rng_,
                              &service->recovery_, &wal_error);
    if (service->wal_ == nullptr) return fail("ingest: " + wal_error);
    service->rows_ingested_.store(service->recovery_.rows,
                                  std::memory_order_release);
    // Publish the recovered state at once -- consumers should see it
    // without waiting for new rows -- under its absolute row count, so
    // the snapshot cadence (every rows_per_snapshot ABSOLUTE rows)
    // matches an unbroken run.
    if (service->recovery_.rows > 0) {
      service->PublishSnapshot(service->recovery_.rows);
    }
  }
  return service;
}

IngestService::IngestService(IngestOptions options, PublishFn publish,
                             std::unique_ptr<core::SketchAlgorithm> algorithm,
                             const sketch::StreamingSketch* streaming)
    : options_(std::move(options)),
      publish_(std::move(publish)),
      rows_metric_(
          ResolveRegistry(options_.registry).GetCounter("ingest_rows_total")),
      snapshots_metric_(ResolveRegistry(options_.registry)
                            .GetCounter("ingest_snapshots_total")),
      publish_metric_(ResolveRegistry(options_.registry)
                          .GetHistogram("ingest_publish_ns")),
      algorithm_(std::move(algorithm)),
      rng_(options_.seed),
      builder_(streaming->NewBuilder(options_.d, options_.params, rng_)) {}

IngestService::~IngestService() { Finish(); }

void IngestService::Push(const util::BitVector& row) {
  IFSKETCH_CHECK(!finished_);
  IFSKETCH_CHECK_EQ(row.size(), options_.d);
  // Write-ahead: the row reaches the log before the builder -- the
  // recovered prefix therefore contains every row the builder ever
  // observed. A log I/O failure latches durability off but ingest
  // continues (availability over durability); the operator learns via
  // stderr + wal_failed().
  if (wal_ != nullptr && !wal_failed() && !wal_->Append(row)) {
    std::fprintf(stderr,
                 "ifsketch ingest: WAL failed, continuing without "
                 "durability: %s\n",
                 wal_->error().c_str());
    wal_failed_.store(true, std::memory_order_release);
  }
  builder_->Observe(row);
  const std::uint64_t rows =
      rows_ingested_.load(std::memory_order_relaxed) + 1;
  rows_ingested_.store(rows, std::memory_order_release);
  rows_metric_->Add();
  if (rows % options_.rows_per_snapshot == 0) PublishSnapshot(rows);
}

void IngestService::Finish() {
  if (finished_) return;
  finished_ = true;
  const std::uint64_t rows = rows_ingested();
  if (rows > last_published_rows_) PublishSnapshot(rows);
}

void IngestService::PublishSnapshot(std::uint64_t rows) {
  // Checkpoint BEFORE the snapshot becomes visible: anything a consumer
  // can query must survive a crash, so recovery restores at least the
  // rows of the newest published snapshot.
  if (wal_ != nullptr && !wal_failed() &&
      !wal_->Checkpoint(*builder_, rng_, rows)) {
    std::fprintf(stderr,
                 "ifsketch ingest: WAL checkpoint failed, continuing "
                 "without durability: %s\n",
                 wal_->error().c_str());
    wal_failed_.store(true, std::memory_order_release);
  }
  const auto publish_start = std::chrono::steady_clock::now();
  sketch::SketchFile file;
  file.algorithm = options_.algorithm;
  file.params = options_.params;
  file.n = rows;
  file.d = options_.d;
  file.summary = builder_->Summary();
  auto engine = Engine::FromFile(file);
  // The builder produced the summary through the registered algorithm's
  // own layout, and Create checked the params, so FromFile cannot fail
  // here.
  IFSKETCH_CHECK(engine.has_value());
  last_published_rows_ = rows;
  auto shared = std::make_shared<const Engine>(std::move(*engine));
  snapshots_published_.fetch_add(1, std::memory_order_acq_rel);
  publish_(std::move(shared), rows);
  snapshots_metric_->Add();
  publish_metric_->Record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - publish_start)
          .count()));
}

}  // namespace ifsketch::ingest
