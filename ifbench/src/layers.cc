// The traced run's per-layer measurements: the serve-path replay (client
// encode -> DispatchRequest -> client decode on the live run's own
// requests), the STATS/router/pod window deltas, and the probes that
// drive one module's public functions at a time (Router::Acquire,
// Engine, StreamingBuilder, Wal, IngestService).
#include <filesystem>

#include "bench.h"
#include "ingest/wal.h"
#include "serve/server.h"
#include "sketch/builtin_algorithms.h"
#include "sketch/streaming.h"

namespace ifbench {
namespace {

double NsPer(std::uint64_t ns, std::uint64_t count) {
  return count == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(count);
}

std::unique_ptr<sketch::StreamingBuilder> NewBuilder(
    const std::string& algorithm, std::size_t d, util::Rng& rng,
    std::unique_ptr<core::SketchAlgorithm>* owner) {
  *owner = sketch::BuiltinRegistry().Create(algorithm);
  const auto* streaming =
      dynamic_cast<const sketch::StreamingSketch*>(owner->get());
  if (streaming == nullptr) throw SetupError(algorithm + " is not streaming");
  return streaming->NewBuilder(d, Params(), rng);
}

}  // namespace

void ReplayServePath(serve::Router& router,
                     const std::vector<ReplaySample>& samples, SpanSink* sink,
                     Results* results) {
  std::uint64_t encode_ns = 0, dispatch_ns = 0, decode_ns = 0, queries = 0;
  std::vector<double> residual_us;
  for (const ReplaySample& s : samples) {
    ScopedSpan root(sink, "replay", 0, s.request);
    std::string body, frame;
    std::uint64_t enc = 0, disp = 0, dec = 0;
    {
      ScopedSpan span(sink, "client.encode", root.id(), s.request);
      const serve::QueryRequest request{s.sketch, s.batch->wire};
      const bool ok = serve::EncodeQueryRequest(request, &body) &&
                      serve::EncodeFrame(s.opcode, 0, body, &frame);
      enc = span.elapsed_ns();
      results->Check("replay_encode", ok);
    }
    serve::ReplyFrame reply;
    {
      ScopedSpan span(sink, "server.dispatch", root.id(), s.request);
      reply = serve::DispatchRequest(
          router, s.opcode,
          std::string_view(frame).substr(serve::kFrameHeaderBytes));
      disp = span.elapsed_ns();
    }
    bool ok = false;
    {
      ScopedSpan span(sink, "client.decode", root.id(), s.request);
      if (reply.opcode == serve::Opcode::kEstimateReply) {
        const auto answers = serve::DecodeEstimateReply(reply.body);
        dec = span.elapsed_ns();
        ok = answers.has_value() && s.check(&*answers, nullptr);
      } else if (reply.opcode == serve::Opcode::kAreFrequentReply) {
        const auto answers = serve::DecodeAreFrequentReply(reply.body);
        dec = span.elapsed_ns();
        ok = answers.has_value() && s.check(nullptr, &*answers);
      }
    }
    results->Check("replay_answers", ok);
    encode_ns += enc;
    dispatch_ns += disp;
    decode_ns += dec;
    queries += s.batch->wire.size();
    // What the live request spent outside the three replayed layers:
    // sockets, epoll and scheduling (can dip below 0 when the replay ran
    // slower than the live request).
    residual_us.push_back((static_cast<double>(s.live_ns) -
                           static_cast<double>(enc + disp + dec)) /
                          1e3);
  }
  const std::uint64_t n = samples.size();
  results->Put("client.encode_ns_per_query", NsPer(encode_ns, queries), "ns", n);
  results->Put("client.decode_ns_per_query", NsPer(decode_ns, queries), "ns", n);
  results->Put("dispatch.ns_per_query", NsPer(dispatch_ns, queries), "ns", n);
  results->Put("reactor.residual_us", Percentile(residual_us, 0.5), "us", n);
}

void ProbeAcquireMiss(serve::Router& router,
                      const std::vector<std::string>& names, SpanSink* sink,
                      Results* results) {
  std::vector<double> miss_us;
  for (const std::string& name : names) {
    serve::SketchPod& pod = *router.pods()[router.ShardOf(name)];
    const std::size_t budget = pod.byte_budget();
    pod.SetByteBudget(0);  // evicts every file-backed resident
    pod.SetByteBudget(budget);
    const std::uint64_t loads = ReadPodTotals(router).loads;
    std::uint64_t ns = 0;
    bool ok = false;
    {
      ScopedSpan span(sink, "router.acquire", 0, 0);
      ok = router.Acquire(name) != nullptr;
      ns = span.elapsed_ns();
    }
    results->Check("acquire_probe", ok);
    if (ReadPodTotals(router).loads > loads) {
      miss_us.push_back(static_cast<double>(ns) / 1e3);
    }
  }
  results->Put("pod.acquire_miss_us", Percentile(miss_us, 0.5), "us",
               miss_us.size());
}

WindowStats ReadWindowStats(serve::Router& router,
                            serve::SketchClient& stats_client) {
  WindowStats w;
  w.stats = FetchStats(stats_client);
  w.coalesce = router.coalesce_stats();
  w.pods = ReadPodTotals(router);
  return w;
}

void PutServeWindowMetrics(const WindowStats& before, const WindowStats& after,
                           std::uint64_t requests, Results* results) {
  for (const char* stage : {"decode", "route", "acquire", "kernel", "encode"}) {
    const std::string histogram = std::string("serve_stage_") + stage + "_ns";
    const obs::HistogramSnapshot d = Delta(after.stats.Histogram(histogram),
                                           before.stats.Histogram(histogram));
    results->Put(std::string("stage.") + stage + "_ns",
                 InterpolatedQuantile(d, 0.5), "ns", d.count);
  }
  const double n = static_cast<double>(std::max<std::uint64_t>(1, requests));
  results->Put("reactor.wakeups_per_request",
               static_cast<double>(
                   after.stats.Counter("serve_loop_wakeups_total") -
                   before.stats.Counter("serve_loop_wakeups_total")) /
                   n,
               "count", requests);
  const double routed =
      static_cast<double>(after.coalesce.requests - before.coalesce.requests);
  const double batches =
      static_cast<double>(after.coalesce.batches - before.coalesce.batches);
  const double fused =
      static_cast<double>(after.coalesce.fused - before.coalesce.fused);
  results->Put("router.fused_share", routed > 0 ? fused / routed : 0.0,
               "fraction", static_cast<std::uint64_t>(routed));
  results->Put("router.requests_per_batch",
               batches > 0 ? routed / batches : 0.0, "count",
               static_cast<std::uint64_t>(batches));
  const double hits = static_cast<double>(after.pods.hits - before.pods.hits);
  const double loads =
      static_cast<double>(after.pods.loads - before.pods.loads);
  results->Put("pod.hit_ratio",
               hits + loads > 0 ? hits / (hits + loads) : 0.0, "fraction",
               static_cast<std::uint64_t>(hits + loads));
  results->Put("pod.evictions_per_1k_requests",
               static_cast<double>(after.pods.evictions -
                                   before.pods.evictions) *
                   1000.0 / n,
               "count", requests);
}

void ProbeEngines(const Catalog& catalog, const std::vector<QueryBatch>& batches,
                  bool tiny, SpanSink* sink, Results* results) {
  const auto& algorithms = CatalogAlgorithms();
  const std::uint64_t min_ns = tiny ? 2'000'000 : 20'000'000;
  const std::vector<core::Itemset> first = {batches[0].itemsets[0]};
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    const char* slug = algorithms[i].slug;
    const std::string& path = catalog.paths[i];
    results->Put(std::string("engine.build_ns_per_row.") + slug,
                 catalog.build_ns_per_row[i], "ns", catalog.db.num_rows());

    // Open in auto (mapped) mode plus the first query, which is when the
    // query views materialize.
    std::vector<double> open_us;
    std::vector<double> answers;
    for (int rep = 0; rep < (tiny ? 3 : 9); ++rep) {
      ScopedSpan span(sink, "engine.open", 0, 0, slug);
      auto engine = Engine::Open(path);
      if (engine.has_value()) engine->estimate_many(first, &answers);
      open_us.push_back(static_cast<double>(span.elapsed_ns()) / 1e3);
      results->Check("engine_probe", engine.has_value());
    }
    results->Put(std::string("engine.open_us.") + slug,
                 Percentile(open_us, 0.5), "us", open_us.size());

    auto engine = Engine::Open(path);
    results->Check("engine_probe", engine.has_value());
    if (!engine.has_value()) continue;
    engine->estimate_many(first, &answers);  // materialize views
    for (const bool estimate : {true, false}) {
      std::uint64_t ns = 0, queries = 0;
      std::vector<bool> bits;
      while (ns < min_ns) {
        ScopedSpan span(sink,
                        estimate ? "engine.estimate_many" : "engine.are_frequent",
                        0, 0, slug);
        for (const QueryBatch& batch : batches) {
          if (estimate) {
            engine->estimate_many(batch.itemsets, &answers);
          } else {
            engine->are_frequent(batch.itemsets, &bits);
          }
          queries += batch.itemsets.size();
        }
        ns += span.elapsed_ns();
      }
      results->Put(std::string(estimate ? "engine.estimate_ns_per_query."
                                        : "engine.are_frequent_ns_per_query.") +
                       slug,
                   NsPer(ns, queries), "ns", queries);
    }
  }
}

void ProbeSketchAndWal(const core::Database& rows, std::uint64_t seed,
                       const std::string& wal_dir, bool tiny, SpanSink* sink,
                       Results* results) {
  const std::size_t d = rows.num_columns();
  const std::size_t n = std::min<std::size_t>(rows.num_rows(), tiny ? 2000 : 10000);
  for (const Algorithm& algorithm : CatalogAlgorithms()) {
    if (!algorithm.streaming) continue;
    util::Rng rng(seed);
    std::unique_ptr<core::SketchAlgorithm> owner;
    auto builder = NewBuilder(algorithm.name, d, rng, &owner);
    std::uint64_t ns = 0;
    {
      ScopedSpan span(sink, "sketch.observe", 0, 0, algorithm.slug);
      for (std::size_t i = 0; i < n; ++i) builder->Observe(rows.Row(i));
      ns = span.elapsed_ns();
    }
    results->Put(std::string("sketch.observe_ns_per_row.") + algorithm.slug,
                 NsPer(ns, n), "ns", n);
  }

  // StreamingBuilder::Summary at one snapshot's worth of rows.
  {
    util::Rng rng(seed);
    std::unique_ptr<core::SketchAlgorithm> owner;
    auto builder = NewBuilder("STREAM-SUBSAMPLE", d, rng, &owner);
    for (std::size_t i = 0; i < std::min(kRowsPerSnapshot, rows.num_rows());
         ++i) {
      builder->Observe(rows.Row(i));
    }
    std::vector<double> summary_us;
    for (int rep = 0; rep < 9; ++rep) {
      ScopedSpan span(sink, "sketch.summary", 0, 0, "stream_subsample");
      const util::BitVector summary = builder->Summary();
      summary_us.push_back(static_cast<double>(span.elapsed_ns()) / 1e3);
      results->Check("sketch_probe", summary.size() > 0);
    }
    results->Put("sketch.summary_us", Percentile(summary_us, 0.5), "us",
                 summary_us.size());
  }

  // Wal::Append per row and Wal::Checkpoint per snapshot, replaying the
  // same rows the way IngestService drives them (append before observe).
  std::filesystem::remove_all(wal_dir);
  util::Rng rng(seed);
  std::unique_ptr<core::SketchAlgorithm> owner;
  auto builder = NewBuilder("STREAM-SUBSAMPLE", d, rng, &owner);
  obs::MetricsRegistry registry;
  ingest::WalOptions options;
  options.dir = wal_dir;
  options.sync = ingest::WalSyncPolicy::kOnSnapshot;
  options.registry = &registry;
  std::string error;
  auto wal = ingest::Wal::Open(options, "STREAM-SUBSAMPLE", Params(), d, seed,
                               builder.get(), &rng, nullptr, &error);
  if (wal == nullptr) throw SetupError("Wal::Open: " + error);
  std::uint64_t append_ns = 0;
  std::vector<double> checkpoint_us;
  bool ok = true;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t start = NowNs();
    ok = wal->Append(rows.Row(i)) && ok;
    append_ns += NowNs() - start;
    builder->Observe(rows.Row(i));
    if ((i + 1) % kRowsPerSnapshot == 0) {
      ScopedSpan span(sink, "wal.checkpoint", 0, 0);
      ok = wal->Checkpoint(*builder, rng, i + 1) && ok;
      checkpoint_us.push_back(static_cast<double>(span.elapsed_ns()) / 1e3);
    }
  }
  results->Check("wal_probe", ok);
  results->Put("ingest.wal_append_ns_per_row", NsPer(append_ns, n), "ns", n);
  results->Put("ingest.wal_checkpoint_us", Percentile(checkpoint_us, 0.5),
               "us", checkpoint_us.size());
  wal.reset();
  std::filesystem::remove_all(wal_dir);
}

void ProbeIngestService(const core::Database& rows, std::uint64_t seed,
                        const std::string& wal_dir, SpanSink* sink,
                        Results* results) {
  std::filesystem::remove_all(wal_dir);
  obs::MetricsRegistry registry;
  serve::RouterOptions router_options;
  router_options.registry = &registry;
  serve::Router router({std::make_shared<serve::SketchPod>(
                           serve::SketchPod::kUnlimited, &registry, "probe")},
                       router_options);
  router.AddStream("probe");
  std::string error;
  auto service = ingest::IngestService::Create(
      StreamOptions(seed, rows.num_columns(), wal_dir, &registry),
      [&router](std::shared_ptr<const Engine> engine, std::uint64_t covered) {
        router.Publish("probe", std::move(engine), covered);
      },
      &error);
  if (service == nullptr) throw SetupError(error);
  const std::size_t n = rows.num_rows();
  std::uint64_t push_ns = 0;
  {
    ScopedSpan span(sink, "ingest.push", 0, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t start = NowNs();
      service->Push(rows.Row(i));
      push_ns += NowNs() - start;
    }
    service->Finish();
  }
  results->Check("ingest_probe", service->rows_ingested() == n &&
                                     !service->wal_failed());
  results->Put("ingest.push_wait_ns_per_row", NsPer(push_ns, n), "ns", n);
  const obs::HistogramSnapshot publish =
      registry.GetHistogram("ingest_publish_ns")->Snapshot();
  results->Put("ingest.publish_us", InterpolatedQuantile(publish, 0.5) / 1e3,
               "us", publish.count);
  const obs::HistogramSnapshot fsync =
      registry.GetHistogram("wal_fsync_ns")->Snapshot();
  results->Put("ingest.wal_fsync_us", InterpolatedQuantile(fsync, 0.5) / 1e3,
               "us", fsync.count);
  service.reset();
  std::filesystem::remove_all(wal_dir);
}

}  // namespace ifbench
