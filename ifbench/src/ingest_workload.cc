// ingest_live: an IngestService (STREAM-SUBSAMPLE, WAL on_snapshot)
// publishes through Router::Publish into a name the reactor serves. One
// producer pushes pre-generated rows (cycling through them), one client
// sends 1000-query EstimateMany batches to the live name, and one
// subscriber follows every epoch -- so the write path does the work
// while queries read from a pod whose snapshot swaps beside them.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <map>
#include <thread>

#include "bench.h"

namespace ifbench {
namespace {

constexpr char kName[] = "live";
constexpr std::size_t kBatches = 16;
constexpr std::size_t kBatch = 1000;
// Mid-run snapshot checked against a one-shot build.
constexpr std::uint64_t kMidEpoch = 3;
// Every this many rounds a reply is checked against the snapshots that
// were current while it was in flight (kept in a ring of recent ones).
constexpr std::uint64_t kCheckEvery = 64;
constexpr std::size_t kRecentSnapshots = 16;

/// The seeded stream rows (cycled through) and query batches.
struct LiveInputs {
  core::Database rows;
  std::vector<QueryBatch> batches;
};

/// A published snapshot and the stream prefix it covers.
struct Snapshot {
  std::shared_ptr<const Engine> engine;
  std::uint64_t rows = 0;
};

/// What one measured window produced.
struct LiveWindow {
  LoopResult queries;
  std::uint64_t subscribes = 0;
  std::uint64_t subscribe_failures = 0;
  std::uint64_t rows_pushed = 0;
  std::uint64_t rows_ingested = 0;
  std::uint64_t push_ns = 0;  // producer time inside Push (traced only)
  double wall_s = 0.0;
  std::vector<double> freshness_ms;
  std::vector<ReplaySample> replay;  // traced only
  std::uint64_t replies_checked = 0;
  std::uint64_t replies_wrong = 0;
};

class LiveScenario {
 public:
  LiveScenario(const Config& config, int iteration) : config_(config) {
    util::Rng rng(config.seed);
    auto inputs = std::make_shared<LiveInputs>();
    // The same seeded 32-column baskets the catalog is built from.
    inputs->rows = Baskets(CatalogRows(config.tiny), kCatalogColumns, rng);
    for (std::size_t b = 0; b < kBatches; ++b) {
      inputs->batches.push_back(RandomBatch(kBatch, kCatalogColumns, rng));
    }
    inputs_ = std::move(inputs);
    stack_ = std::make_unique<ServeStack>(1);
    stack_->router().AddStream(kName);
    wal_dir_ = config.tmp_dir + "/wal-live-" + std::to_string(iteration);
    std::filesystem::remove_all(wal_dir_);
    std::string error;
    service_ = ingest::IngestService::Create(
        StreamOptions(config.seed, kCatalogColumns, wal_dir_,
                      &stack_->registry()),
        [this](std::shared_ptr<const Engine> engine, std::uint64_t covered) {
          OnPublish(std::move(engine), covered);
        },
        &error);
    if (service_ == nullptr) throw SetupError(error);
    query_client_ = stack_->Connect();
    subscriber_ = stack_->Connect();
    // Warm-up: the first snapshot is published and answers one query.
    for (std::size_t i = 0; i < kRowsPerSnapshot; ++i) PushNext();
    if (!stack_->router().WaitForEpoch(kName, 0, std::chrono::seconds(60)) ||
        !query_client_->EstimateMany(kName, inputs_->batches[0].wire)) {
      throw SetupError("ingest_live warm-up failed");
    }
  }

  ~LiveScenario() {
    service_.reset();  // drains and publishes before the router goes
    std::filesystem::remove_all(wal_dir_);
  }

  LiveWindow RunWindow(double seconds, Tracer* tracer) {
    LiveWindow w;
    SpanSink* producer_sink = tracer != nullptr ? tracer->NewSink() : nullptr;
    SpanSink* query_sink = tracer != nullptr ? tracer->NewSink() : nullptr;
    SpanSink* subscriber_sink = tracer != nullptr ? tracer->NewSink() : nullptr;
    const auto deadline = Deadline(seconds);
    const std::uint64_t start = NowNs();
    const std::uint64_t rows_before = service_->rows_ingested();
    const std::uint64_t pushed_before = pushed_;
    // epoch -> ns; each map is written by one thread, read after join.
    std::map<std::uint64_t, std::uint64_t> pushed_at;
    std::map<std::uint64_t, std::uint64_t> received_at;
    std::atomic<bool> stop{false};

    std::thread producer([&] {
      // The stream always runs past the mid-run snapshot, however short
      // the window, so there is one to check.
      while (std::chrono::steady_clock::now() < deadline ||
             pushed_ <= kMidEpoch * kRowsPerSnapshot) {
        const std::uint64_t block_start = NowNs();
        for (std::size_t i = 0; i < kRowsPerSnapshot; ++i) {
          const std::uint64_t t0 = producer_sink != nullptr ? NowNs() : 0;
          PushNext();
          if (producer_sink != nullptr) w.push_ns += NowNs() - t0;
          if (pushed_ % kRowsPerSnapshot == 0) {
            // Push returned for the row that completes this snapshot.
            pushed_at[pushed_ / kRowsPerSnapshot] = NowNs();
          }
        }
        if (producer_sink != nullptr) {
          producer_sink->Record("ingest.push_block", 0, block_start, NowNs());
        }
      }
    });
    std::thread subscriber([&] {
      std::uint64_t seen = published_epoch_.load();
      while (!stop.load()) {
        const std::uint64_t t0 = NowNs();
        auto info = subscriber_->Subscribe(kName, seen, 100);
        const std::uint64_t now = NowNs();
        ++w.subscribes;
        if (subscriber_sink != nullptr) {
          subscriber_sink->Record("client.subscribe", 0, t0, now);
        }
        if (!info.has_value()) {
          ++w.subscribe_failures;
          continue;
        }
        for (std::uint64_t e = seen + 1; e <= info->epoch; ++e) {
          received_at[e] = now;
        }
        seen = std::max(seen, info->epoch);
      }
    });
    w.queries = RunClosedLoop(1, deadline, [&](std::size_t, std::uint64_t r) {
      const std::size_t b = r % kBatches;
      Outcome o;
      o.op = "client.estimate_many";
      o.queries = kBatch;
      const std::uint64_t lo = published_epoch_.load();
      o.start_ns = NowNs();
      auto answers =
          query_client_->EstimateMany(kName, inputs_->batches[b].wire);
      o.end_ns = NowNs();
      o.ok = answers.has_value();
      if (o.ok && r % kCheckEvery == 0) {
        ++w.replies_checked;
        if (!MatchesSnapshotSince(lo, b, *answers)) ++w.replies_wrong;
      }
      if (query_sink != nullptr) {
        query_sink->Record(o.op, RequestId(0, r), o.start_ns, o.end_ns);
        if (o.ok && r % kReplayEvery == 0 &&
            w.replay.size() < kMaxReplaysPerClient) {
          ReplaySample s;
          s.request = RequestId(0, r);
          s.sketch = kName;
          s.batch = &inputs_->batches[b];
          s.live_ns = o.end_ns - o.start_ns;
          w.replay.push_back(std::move(s));
        }
      }
      return o;
    });
    producer.join();
    w.wall_s = static_cast<double>(NowNs() - start) / 1e9;
    w.rows_pushed = pushed_ - pushed_before;
    w.rows_ingested = service_->rows_ingested() - rows_before;
    stop.store(true);
    subscriber.join();
    for (const auto& [epoch, pushed] : pushed_at) {
      auto it = received_at.find(epoch);
      if (it == received_at.end()) continue;
      // The subscriber can see an epoch a hair before the producer
      // stamps its Push return; that is zero freshness, not negative.
      w.freshness_ms.push_back(
          it->second > pushed ? static_cast<double>(it->second - pushed) / 1e6
                              : 0.0);
    }
    return w;
  }

  /// The snapshot currently served, saved as a file and registered under
  /// a second name, for the acquire-miss probe (stream names are pinned
  /// and never reload).
  std::string RegisterSnapshotFile() {
    const std::string path = config_.tmp_dir + "/live-snapshot.ifsk";
    auto engine = stack_->router().Acquire(kName);
    std::string error;
    if (engine == nullptr || !engine->Save(path, &error)) {
      throw SetupError("snapshot save failed: " + error);
    }
    stack_->router().AddSketch("live-file", path);
    return "live-file";
  }

  /// Drains the stream (final snapshot) and returns the mid-run and
  /// final snapshots for CheckAgainstBuild.
  std::vector<Snapshot> Finish(Results* results) {
    service_->Finish();
    std::lock_guard<std::mutex> lock(mu_);
    results->Check("final_snapshot_published",
                   last_.engine != nullptr && last_.rows == pushed_);
    results->Check("publish_epochs_in_order", !epoch_mismatch_.load());
    return {mid_, last_};
  }

  ServeStack& stack() { return *stack_; }
  const std::shared_ptr<const LiveInputs>& inputs() const { return inputs_; }

  /// Direct answers of the snapshot served now, for the replay check.
  std::function<bool(const std::vector<double>*, const std::vector<bool>*)>
  CurrentSnapshotCheck(std::size_t batch) {
    auto engine = stack_->router().Acquire(kName);
    auto expected = std::make_shared<std::vector<double>>();
    if (engine != nullptr) {
      engine->estimate_many(inputs_->batches[batch].itemsets, expected.get());
    }
    return [expected](const std::vector<double>* est, const std::vector<bool>*) {
      return est != nullptr && BitIdentical(*est, *expected);
    };
  }
  std::size_t BatchIndex(const QueryBatch* batch) const {
    return static_cast<std::size_t>(batch - inputs_->batches.data());
  }

 private:
  void PushNext() {
    const core::Database& rows = inputs_->rows;
    service_->Push(rows.Row(pushed_ % rows.num_rows()));
    ++pushed_;
  }

  // Runs on the ingest thread. The snapshot enters the ring before the
  // router serves it, so a reply can always be matched to its snapshot.
  void OnPublish(std::shared_ptr<const Engine> engine, std::uint64_t covered) {
    const Snapshot snapshot{engine, covered};
    std::uint64_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = ++next_epoch_;
      recent_[epoch] = snapshot;
      if (recent_.size() > kRecentSnapshots) recent_.erase(recent_.begin());
      if (epoch == kMidEpoch) mid_ = snapshot;
      last_ = snapshot;
    }
    if (stack_->router().Publish(kName, std::move(engine), covered) != epoch) {
      epoch_mismatch_.store(true);
    }
    published_epoch_.store(epoch);
  }

  // Whether `answers` equal the direct answers of batch `b` on some
  // snapshot from epoch `since` on (the one served when the request went
  // out, or any published while it was in flight).
  bool MatchesSnapshotSince(std::uint64_t since, std::size_t b,
                            const std::vector<double>& answers) {
    std::vector<std::shared_ptr<const Engine>> candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = recent_.lower_bound(since); it != recent_.end(); ++it) {
        candidates.push_back(it->second.engine);
      }
    }
    std::vector<double> direct;
    for (const auto& engine : candidates) {
      engine->estimate_many(inputs_->batches[b].itemsets, &direct);
      if (BitIdentical(direct, answers)) return true;
    }
    return false;
  }

  const Config& config_;
  std::shared_ptr<const LiveInputs> inputs_;
  std::string wal_dir_;
  std::uint64_t pushed_ = 0;  // producer thread only (or set-up)
  std::mutex mu_;  // guards the snapshot bookkeeping below
  std::uint64_t next_epoch_ = 0;
  std::map<std::uint64_t, Snapshot> recent_;  // newest kRecentSnapshots
  Snapshot mid_;   // epoch kMidEpoch
  Snapshot last_;  // newest
  std::atomic<std::uint64_t> published_epoch_{0};
  std::atomic<bool> epoch_mismatch_{false};
  std::unique_ptr<ServeStack> stack_;
  std::unique_ptr<serve::SketchClient> query_client_;
  std::unique_ptr<serve::SketchClient> subscriber_;
  std::unique_ptr<ingest::IngestService> service_;
};

// The true frequency of batch 0 over the first `covered` rows of the
// cyclic stream: full cycles plus a partial one.
std::vector<double> CyclicTruth(const LiveInputs& inputs,
                                std::uint64_t covered) {
  const core::Database& rows = inputs.rows;
  const std::uint64_t cycles = covered / rows.num_rows();
  core::Database partial(0, kCatalogColumns);
  for (std::uint64_t i = 0; i < covered % rows.num_rows(); ++i) {
    partial.AppendRow(rows.Row(i));
  }
  std::vector<double> truth;
  for (const core::Itemset& t : inputs.batches[0].itemsets) {
    const std::uint64_t support =
        cycles * rows.SupportCount(t) + partial.SupportCount(t);
    truth.push_back(static_cast<double>(support) /
                    static_cast<double>(covered));
  }
  return truth;
}

// Each snapshot against Engine::Build over the covered stream prefix with
// the same seed, and against the for-all bound.
void CheckAgainstBuild(const Config& config, const LiveInputs& inputs,
                       const std::vector<Snapshot>& snapshots,
                       Results* results) {
  const std::vector<core::Itemset>& queries = inputs.batches[0].itemsets;
  for (const Snapshot& snapshot : snapshots) {
    if (snapshot.engine == nullptr) {
      results->Check("snapshot_vs_build", false);
      continue;
    }
    core::Database prefix(0, kCatalogColumns);
    for (std::uint64_t i = 0; i < snapshot.rows; ++i) {
      prefix.AppendRow(inputs.rows.Row(i % inputs.rows.num_rows()));
    }
    util::Rng rng(config.seed);
    auto built = Engine::Build(prefix, "STREAM-SUBSAMPLE", Params(), rng);
    std::vector<double> served, expected;
    snapshot.engine->estimate_many(queries, &served);
    if (built.has_value()) built->estimate_many(queries, &expected);
    if (config.perturb_expected && !expected.empty()) {
      expected[0] = std::nextafter(expected[0], 2.0);
    }
    results->Check("snapshot_vs_build",
                   built.has_value() && BitIdentical(served, expected));
    CheckForAll(served, CyclicTruth(inputs, snapshot.rows), Params().eps,
                results);
  }
}

void CountRequests(const LiveWindow& w, Results* results) {
  results->Count("client_requests", w.queries.requests + w.subscribes,
                 w.queries.failed + w.subscribe_failures);
  results->Count("served_vs_snapshot", w.replies_checked, w.replies_wrong);
}

}  // namespace

void RunIngestLive(const Config& config, Tracer* tracer, Results* results) {
  results->Setting("ingest_live.stream",
                   "STREAM-SUBSAMPLE d=32, 2000 rows/snapshot, WAL on_snapshot");
  results->Setting("ingest_live.clients",
                   "1 producer, 1 x EstimateMany(1000), 1 subscriber");
  std::unique_ptr<LiveScenario> s;
  if (!config.trace) {
    // One measured segment per set-up; the build checks run after every
    // window, so their memory stays out of peak_rss_mb.
    // Freshness pools every segment's snapshots: p90 needs >= 100.
    std::vector<double> setup_seconds, rows_per_s, freshness_ms;
    std::vector<LoopResult> segments;
    std::vector<std::vector<Snapshot>> to_check;
    std::shared_ptr<const LiveInputs> inputs;
    std::uint64_t rows = 0;
    for (int i = 0; i < kSetupRepeats; ++i) {
      s.reset();
      const std::uint64_t start = NowNs();
      s = std::make_unique<LiveScenario>(config, i);
      setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
      LiveWindow w = s->RunWindow(config.seconds / kSetupRepeats, nullptr);
      rows_per_s.push_back(static_cast<double>(w.rows_ingested) / w.wall_s);
      freshness_ms.insert(freshness_ms.end(), w.freshness_ms.begin(),
                          w.freshness_ms.end());
      rows += w.rows_ingested;
      CountRequests(w, results);
      segments.push_back(std::move(w.queries));
      to_check.push_back(s->Finish(results));
      // Every segment's mid-run snapshot, but only the last segment's
      // final one: rebuilding a whole stream costs as much as ingesting it.
      if (i + 1 < kSetupRepeats) to_check.back().pop_back();
      inputs = s->inputs();
    }
    s.reset();
    PutRequestMetrics(segments, results);
    PutSetupMetric(setup_seconds, results);
    PutPeakRss(results);
    results->Put("ingest_rows_per_s", Percentile(rows_per_s, 0.5), "rows/s",
                 rows);
    results->Put("freshness_p50_ms", Percentile(freshness_ms, 0.5), "ms",
                 freshness_ms.size());
    results->Put("freshness_p90_ms", Percentile(freshness_ms, 0.9), "ms",
                 freshness_ms.size());
    for (const auto& snapshots : to_check) {
      CheckAgainstBuild(config, *inputs, snapshots, results);
    }
    return;
  }

  s = std::make_unique<LiveScenario>(config, 0);
  const LiveWindow untraced = s->RunWindow(config.seconds / 2, nullptr);
  auto stats_client = s->stack().Connect();
  const WindowStats before = ReadWindowStats(s->stack().router(), *stats_client);
  LiveWindow traced = s->RunWindow(config.seconds / 2, tracer);
  const WindowStats after = ReadWindowStats(s->stack().router(), *stats_client);
  PutServeWindowMetrics(before, after, traced.queries.requests + traced.subscribes,
                        results);
  const double p50_untraced = Summarize(untraced.queries.latency_ns).p50_us;
  results->Put("trace.overhead_share",
               (Summarize(traced.queries.latency_ns).p50_us - p50_untraced) /
                   p50_untraced,
               "fraction", traced.queries.latency_ns.size());
  results->Put("ingest.push_wait_ns_per_row",
               traced.rows_pushed == 0
                   ? 0.0
                   : static_cast<double>(traced.push_ns) /
                         static_cast<double>(traced.rows_pushed),
               "ns", traced.rows_pushed);
  const obs::HistogramSnapshot publish =
      Delta(after.stats.Histogram("ingest_publish_ns"),
            before.stats.Histogram("ingest_publish_ns"));
  results->Put("ingest.publish_us", InterpolatedQuantile(publish, 0.5) / 1e3,
               "us", publish.count);
  const obs::HistogramSnapshot fsync = Delta(after.stats.Histogram("wal_fsync_ns"),
                                             before.stats.Histogram("wal_fsync_ns"));
  results->Put("ingest.wal_fsync_us", InterpolatedQuantile(fsync, 0.5) / 1e3,
               "us", fsync.count);
  CountRequests(untraced, results);
  CountRequests(traced, results);

  // The stream is paused now, so the served snapshot is stable for the
  // replay's answer check.
  SpanSink* sink = tracer->NewSink();
  for (ReplaySample& sample : traced.replay) {
    sample.check = s->CurrentSnapshotCheck(s->BatchIndex(sample.batch));
  }
  ReplayServePath(s->stack().router(), traced.replay, sink, results);
  const std::string file_name = s->RegisterSnapshotFile();
  ProbeAcquireMiss(s->stack().router(),
                   std::vector<std::string>(
                       std::min<std::size_t>(traced.replay.size(), 32) + 1,
                       file_name),
                   sink, results);
  const Catalog catalog = BuildCatalog(config.seed, CatalogRows(config.tiny),
                                       config.tmp_dir, sink);
  ProbeEngines(catalog, ProbeBatches(config.seed, kCatalogColumns),
               config.tiny, sink, results);
  ProbeSketchAndWal(s->inputs()->rows, config.seed,
                    config.tmp_dir + "/wal-probe", config.tiny, sink, results);
  const std::shared_ptr<const LiveInputs> inputs = s->inputs();
  const std::vector<Snapshot> snapshots = s->Finish(results);
  CheckAgainstBuild(config, *inputs, snapshots, results);
}

}  // namespace ifbench
