// serve_batch and serve_catalog: closed-loop query clients against the
// reactor on loopback TCP. The two share one driver (set-up repeats,
// measured window, traced window, replay, probes); each scenario owns
// its inputs, its per-request step, and its correctness checks.
#include <algorithm>
#include <cmath>

#include "bench.h"

namespace ifbench {
namespace {

/// One served scenario: a ready stack, connected clients, and the step
/// each client thread runs. Built (and timed) as one unit of set-up.
class ServeScenario {
 public:
  virtual ~ServeScenario() = default;

  /// Computes the direct-Engine answers every reply is checked against
  /// (after set-up, outside the setup_s timer).
  virtual void Prepare(bool perturb_expected) = 0;
  /// One closed-loop request from client `c`, round `r`: send, wait,
  /// check bit-identity against the direct Engine answer.
  virtual Outcome Step(std::size_t c, std::uint64_t r) = 0;
  /// What Step(c, r) sent, for the layer-by-layer replay.
  virtual ReplaySample Describe(std::size_t c, std::uint64_t r) = 0;
  /// The paper's for-all guarantee against Database::Frequency.
  virtual void CheckGuarantee(Results* results) = 0;
  /// Catalog, streaming-builder, WAL and ingest probes (traced run).
  virtual void ProbeLayers(const Config& config, SpanSink* sink,
                           Results* results) = 0;

  std::size_t clients() const { return clients_.size(); }
  ServeStack& stack() { return *stack_; }

 protected:
  std::unique_ptr<ServeStack> stack_;
  std::vector<std::unique_ptr<serve::SketchClient>> clients_;
};

Outcome SendEstimate(serve::SketchClient& client, const std::string& name,
                     const QueryBatch& batch,
                     const std::vector<double>& expected) {
  Outcome o;
  o.op = "client.estimate_many";
  o.queries = batch.wire.size();
  o.start_ns = NowNs();
  auto answers = client.EstimateMany(name, batch.wire);
  o.end_ns = NowNs();
  o.ok = answers.has_value() && BitIdentical(*answers, expected);
  return o;
}

Outcome SendAreFrequent(serve::SketchClient& client, const std::string& name,
                        const QueryBatch& batch,
                        const std::vector<bool>& expected) {
  Outcome o;
  o.op = "client.are_frequent";
  o.queries = batch.wire.size();
  o.start_ns = NowNs();
  auto answers = client.AreFrequent(name, batch.wire);
  o.end_ns = NowNs();
  o.ok = answers.has_value() && *answers == expected;
  return o;
}

void Perturb(std::vector<double>* answers) {
  (*answers)[0] = std::nextafter((*answers)[0], 2.0);
}

// The shared set-up for the off-path layer probes of a traced run: the
// nine-algorithm catalog (engine layer), the streaming builders and WAL
// over its rows (sketch layer), and a short IngestService (ingest layer).
void ProbeCatalogAndIngest(const Catalog& catalog, const Config& config,
                           SpanSink* sink, Results* results) {
  ProbeEngines(catalog, ProbeBatches(config.seed, kCatalogColumns),
               config.tiny, sink, results);
  ProbeSketchAndWal(catalog.db, config.seed, config.tmp_dir + "/wal-probe",
                    config.tiny, sink, results);
  ProbeIngestService(catalog.db, config.seed,
                     config.tmp_dir + "/wal-ingest-probe", sink, results);
}

// ----------------------------------------------------------- serve_batch

// One SUBSAMPLE sketch (50000 x 64) served mapped from one pod; two
// clients send 1000-query EstimateMany batches. The kernel is a small
// share of each request, so the wire path dominates.
class BatchScenario : public ServeScenario {
 public:
  static constexpr char kName[] = "batch";
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kPoolPerClient = 8;
  static constexpr std::size_t kBatch = 1000;

  explicit BatchScenario(const Config& config) {
    util::Rng rng(config.seed);
    db_ = Baskets(config.tiny ? 5000 : 50000, 64, rng);
    auto built = Engine::Build(db_, "SUBSAMPLE", Params(), rng);
    if (!built.has_value()) throw SetupError("SUBSAMPLE build failed");
    path_ = config.tmp_dir + "/serve_batch.ifsk";
    std::string error;
    if (!built->Save(path_, &error)) throw SetupError("save: " + error);
    stack_ = std::make_unique<ServeStack>(1);
    if (!stack_->router().AddSketch(kName, path_)) {
      throw SetupError("AddSketch failed");
    }
    pools_.resize(kClients);
    for (auto& pool : pools_) {
      for (std::size_t b = 0; b < kPoolPerClient; ++b) {
        pool.push_back(RandomBatch(kBatch, 64, rng));
      }
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(stack_->Connect());
      // Warm-up: the first request loads and maps the sketch.
      if (!clients_.back()->EstimateMany(kName, pools_[c][0].wire)) {
        throw SetupError("warm-up request failed");
      }
    }
  }

  void Prepare(bool perturb_expected) override {
    direct_ = Engine::Open(path_);
    if (!direct_.has_value()) throw SetupError("Engine::Open failed");
    expected_.resize(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const QueryBatch& batch : pools_[c]) {
        expected_[c].emplace_back();
        direct_->estimate_many(batch.itemsets, &expected_[c].back());
      }
    }
    if (perturb_expected) Perturb(&expected_[0][0]);
  }

  Outcome Step(std::size_t c, std::uint64_t r) override {
    const std::size_t b = r % kPoolPerClient;
    return SendEstimate(*clients_[c], kName, pools_[c][b], expected_[c][b]);
  }

  ReplaySample Describe(std::size_t c, std::uint64_t r) override {
    const std::size_t b = r % kPoolPerClient;
    ReplaySample s;
    s.request = RequestId(c, r);
    s.sketch = kName;
    s.batch = &pools_[c][b];
    const std::vector<double>* expected = &expected_[c][b];
    s.check = [expected](const std::vector<double>* est,
                         const std::vector<bool>*) {
      return est != nullptr && BitIdentical(*est, *expected);
    };
    return s;
  }

  void CheckGuarantee(Results* results) override {
    // Each client's first batch: 2000 estimates against a row scan.
    for (std::size_t c = 0; c < kClients; ++c) {
      CheckForAll(expected_[c][0], TrueFrequencies(db_, pools_[c][0].itemsets),
                  Params().eps, results);
    }
  }

  void ProbeLayers(const Config& config, SpanSink* sink,
                   Results* results) override {
    const Catalog catalog = BuildCatalog(
        config.seed, CatalogRows(config.tiny), config.tmp_dir, sink);
    ProbeCatalogAndIngest(catalog, config, sink, results);
  }

 private:
  core::Database db_;
  std::string path_;
  std::vector<std::vector<QueryBatch>> pools_;  // [client][batch]
  std::optional<Engine> direct_;
  std::vector<std::vector<std::vector<double>>> expected_;
};

// --------------------------------------------------------- serve_catalog

// One sketch per registered algorithm, each file under four tenant
// names (36 names over two pods). Pod budgets hold about a quarter of
// the catalog, so Zipf-skewed tenant traffic keeps evicting, reloading
// and mapping sketches; 64-query batches keep the wire path small next
// to the slow estimators.
class CatalogScenario : public ServeScenario {
 public:
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kTenantsPerFile = 4;
  static constexpr std::size_t kSequence = 1 << 15;

  explicit CatalogScenario(const Config& config) {
    catalog_ = BuildCatalog(config.seed, CatalogRows(config.tiny),
                            config.tmp_dir, nullptr);
    batches_ = ProbeBatches(config.seed, kCatalogColumns);
    const auto& algorithms = CatalogAlgorithms();
    const std::size_t files = algorithms.size();
    stack_ = std::make_unique<ServeStack>(2);
    serve::Router& router = stack_->router();
    // Popularity rank i serves file i % 9 under tenant copy i / 9, so the
    // rank -> algorithm map (and with it the traffic mix) is fixed; the
    // seed only picks the draw sequence.
    std::vector<std::size_t> file_bytes;
    for (const std::string& path : catalog_.paths) {
      auto engine = Engine::Open(path);
      if (!engine.has_value()) throw SetupError("Engine::Open failed");
      file_bytes.push_back(engine->resident_bytes());
    }
    std::vector<std::size_t> pod_bytes(router.pod_count(), 0);
    for (std::size_t i = 0; i < files * kTenantsPerFile; ++i) {
      const std::string name = std::string(algorithms[i % files].slug) +
                               "-t" + std::to_string(i / files);
      if (!router.AddSketch(name, catalog_.paths[i % files])) {
        throw SetupError("AddSketch failed");
      }
      names_.push_back(name);
      pod_bytes[router.ShardOf(name)] += file_bytes[i % files];
    }
    for (std::size_t p = 0; p < router.pod_count(); ++p) {
      router.pods()[p]->SetByteBudget(std::max<std::size_t>(1, pod_bytes[p] / 4));
    }
    // Zipf(1.0) over popularity ranks.
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf.push_back(total);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      util::Rng rng(config.seed * 7 + c + 1);
      std::vector<std::uint16_t> sequence(kSequence);
      for (auto& rank : sequence) {
        const double u = rng.UniformDouble() * total;
        rank = static_cast<std::uint16_t>(std::min<std::size_t>(
            names_.size() - 1,
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
      }
      sequences_.push_back(std::move(sequence));
      clients_.push_back(stack_->Connect());
    }
    // Warm-up: every tenant answers once (loading and evicting).
    for (const std::string& name : names_) {
      if (!clients_[0]->EstimateMany(name, batches_[0].wire)) {
        throw SetupError("warm-up request failed for " + name);
      }
    }
  }

  void Prepare(bool perturb_expected) override {
    for (const std::string& path : catalog_.paths) {
      auto engine = Engine::Open(path);
      if (!engine.has_value()) throw SetupError("Engine::Open failed");
      estimates_.emplace_back();
      bits_.emplace_back();
      for (const QueryBatch& batch : batches_) {
        estimates_.back().emplace_back();
        engine->estimate_many(batch.itemsets, &estimates_.back().back());
        bits_.back().emplace_back();
        engine->are_frequent(batch.itemsets, &bits_.back().back());
      }
    }
    if (perturb_expected) Perturb(&estimates_[0][0]);
  }

  Outcome Step(std::size_t c, std::uint64_t r) override {
    const Request q = At(c, r);
    const QueryBatch& batch = batches_[q.batch];
    if (q.are_frequent) {
      return SendAreFrequent(*clients_[c], names_[q.rank], batch,
                             bits_[q.file][q.batch]);
    }
    return SendEstimate(*clients_[c], names_[q.rank], batch,
                        estimates_[q.file][q.batch]);
  }

  ReplaySample Describe(std::size_t c, std::uint64_t r) override {
    const Request q = At(c, r);
    ReplaySample s;
    s.request = RequestId(c, r);
    s.opcode = q.are_frequent ? serve::Opcode::kAreFrequent
                              : serve::Opcode::kEstimate;
    s.sketch = names_[q.rank];
    s.batch = &batches_[q.batch];
    const std::vector<double>* est = &estimates_[q.file][q.batch];
    const std::vector<bool>* bits = &bits_[q.file][q.batch];
    s.check = [est, bits](const std::vector<double>* e,
                          const std::vector<bool>* b) {
      return e != nullptr ? BitIdentical(*e, *est) : *b == *bits;
    };
    return s;
  }

  void CheckGuarantee(Results* results) override {
    std::vector<core::Itemset> all;
    for (const QueryBatch& batch : batches_) {
      all.insert(all.end(), batch.itemsets.begin(), batch.itemsets.end());
    }
    const std::vector<double> truth = TrueFrequencies(catalog_.db, all);
    for (const auto& per_batch : estimates_) {
      std::vector<double> flat;
      for (const auto& answers : per_batch) {
        flat.insert(flat.end(), answers.begin(), answers.end());
      }
      CheckForAll(flat, truth, Params().eps, results);
    }
  }

  void ProbeLayers(const Config& config, SpanSink* sink,
                   Results* results) override {
    ProbeCatalogAndIngest(catalog_, config, sink, results);
  }

 private:
  struct Request {
    std::size_t rank;
    std::size_t file;
    std::size_t batch;
    bool are_frequent;
  };

  // EstimateMany and AreFrequent in a 3:1 ratio.
  Request At(std::size_t c, std::uint64_t r) const {
    Request q;
    q.rank = sequences_[c][r % kSequence];
    q.file = q.rank % catalog_.paths.size();
    q.batch = (r + 5 * c) % batches_.size();
    q.are_frequent = r % 4 == 3;
    return q;
  }

  Catalog catalog_;
  std::vector<QueryBatch> batches_;
  std::vector<std::string> names_;  // index = popularity rank
  std::vector<std::vector<std::uint16_t>> sequences_;
  std::vector<std::vector<std::vector<double>>> estimates_;  // [file][batch]
  std::vector<std::vector<std::vector<bool>>> bits_;
};

// ---------------------------------------------------------------- driver

void DriveServe(
    const Config& config, Tracer* tracer, Results* results,
    const std::function<std::unique_ptr<ServeScenario>()>& set_up) {
  std::unique_ptr<ServeScenario> s;
  // Rounds start at `first`: each segment of an untraced run continues
  // the request sequence (about) where the previous one stopped, so a
  // run covers many Zipf draws rather than replaying the first few
  // thousand ten times.
  const auto steps_from = [&s](std::uint64_t first) {
    return [&s, first](std::size_t c, std::uint64_t r) {
      return s->Step(c, first + r);
    };
  };
  const auto timed_set_up = [&] {
    s.reset();  // tear the previous stack down before timing the next
    const std::uint64_t start = NowNs();
    s = set_up();
    const double seconds = static_cast<double>(NowNs() - start) / 1e9;
    s->Prepare(config.perturb_expected);
    return seconds;
  };

  if (!config.trace) {
    std::vector<double> setup_seconds;
    std::vector<LoopResult> segments;
    for (int i = 0; i < kSetupRepeats; ++i) {
      setup_seconds.push_back(timed_set_up());
      segments.push_back(RunClosedLoop(
          s->clients(), Deadline(config.seconds / kSetupRepeats),
          steps_from(static_cast<std::uint64_t>(i) * 4096)));
      results->Count("client_requests", segments.back().requests,
                     segments.back().failed);
    }
    PutRequestMetrics(segments, results);
    PutSetupMetric(setup_seconds, results);
    PutPeakRss(results);
    s->CheckGuarantee(results);
    return;
  }

  // Traced run: one set-up, an untraced half-window, then a traced
  // half-window whose p50 difference is the tracing overhead.
  timed_set_up();
  const LoopResult untraced =
      RunClosedLoop(s->clients(), Deadline(config.seconds / 2), steps_from(0));
  auto stats_client = s->stack().Connect();
  const WindowStats before = ReadWindowStats(s->stack().router(), *stats_client);
  std::vector<SpanSink*> sinks;
  for (std::size_t c = 0; c < s->clients(); ++c) {
    sinks.push_back(tracer->NewSink());
  }
  std::vector<std::vector<ReplaySample>> samples(s->clients());
  const LoopResult traced = RunClosedLoop(
      s->clients(), Deadline(config.seconds / 2),
      [&](std::size_t c, std::uint64_t r) {
        const Outcome o = s->Step(c, r);
        sinks[c]->Record(o.op, RequestId(c, r), o.start_ns, o.end_ns);
        if (o.ok && r % kReplayEvery == 0 &&
            samples[c].size() < kMaxReplaysPerClient) {
          samples[c].push_back(s->Describe(c, r));
          samples[c].back().live_ns = o.end_ns - o.start_ns;
        }
        return o;
      });
  const WindowStats after = ReadWindowStats(s->stack().router(), *stats_client);
  PutServeWindowMetrics(before, after, traced.requests, results);
  const double p50_untraced = Summarize(untraced.latency_ns).p50_us;
  results->Put("trace.overhead_share",
               (Summarize(traced.latency_ns).p50_us - p50_untraced) /
                   p50_untraced,
               "fraction", traced.latency_ns.size());
  results->Count("client_requests", untraced.requests + traced.requests,
                 untraced.failed + traced.failed);

  SpanSink* sink = tracer->NewSink();
  std::vector<ReplaySample> replay;
  std::vector<std::string> names;
  for (const auto& per_client : samples) {
    for (const ReplaySample& sample : per_client) {
      replay.push_back(sample);
      names.push_back(sample.sketch);
    }
  }
  ReplayServePath(s->stack().router(), replay, sink, results);
  ProbeAcquireMiss(s->stack().router(), names, sink, results);
  s->ProbeLayers(config, sink, results);
  s->CheckGuarantee(results);
}

}  // namespace

void RunServeBatch(const Config& config, Tracer* tracer, Results* results) {
  results->Setting("serve_batch.sketch", "SUBSAMPLE 50000x64 mapped, 1 pod");
  results->Setting("serve_batch.clients", "2 x EstimateMany(1000)");
  DriveServe(config, tracer, results, [&config] {
    return std::make_unique<BatchScenario>(config);
  });
}

void RunServeCatalog(const Config& config, Tracer* tracer, Results* results) {
  results->Setting("serve_catalog.sketches",
                   "9 algorithms x 4 tenants, 20000x32, 2 pods, budget 1/4");
  results->Setting("serve_catalog.clients",
                   "2 x Zipf(1.0) tenants, EstimateMany:AreFrequent 3:1, 64 "
                   "queries");
  DriveServe(config, tracer, results, [&config] {
    return std::make_unique<CatalogScenario>(config);
  });
}

}  // namespace ifbench
