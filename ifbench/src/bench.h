// ifbench: the repository benchmark -- three seeded closed-loop workloads
// against the production serving and ingest stack, end to end (tracing
// off) and per layer (tracing on). ifbench/README.md documents the
// workloads, the metrics, and the layer -> end-to-end map.
//
// Shared declarations: run configuration, the result sink every workload
// writes into, the in-memory span tracer, the served stack (ReactorServer
// over Router/SketchPod on loopback TCP), STATS readers, and the input
// generators. Every input comes from the --seed the workload is given.
#ifndef IFBENCH_BENCH_H_
#define IFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/itemset.h"
#include "core/sketch.h"
#include "engine.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/pod.h"
#include "serve/protocol.h"
#include "serve/reactor.h"
#include "serve/router.h"
#include "util/random.h"

namespace ifbench {

using namespace ifsketch;

// ------------------------------------------------------------ settings

// Sized for a 4-vCPU host: at most 3 load threads per workload, one
// event loop, two dispatch workers, two kernel-pool threads.
inline constexpr std::size_t kLoopThreads = 1;
inline constexpr std::size_t kDispatchThreads = 2;
inline constexpr std::size_t kPoolThreads = 2;

/// Query parameters shared by every sketch the benchmark builds.
core::SketchParams Params();

/// What one invocation runs.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-long smoke sizes (ifbench/smoke.py).
  bool tiny = false;
  /// Negative check: perturbs one expected answer so the correctness
  /// checks must report failures.
  bool perturb_expected = false;
  std::string tmp_dir;    ///< private scratch dir, removed at exit
  std::string spans_dir;  ///< where the traced run writes its span file
  std::string source_id;  ///< git sha / source digest from run.py
};

/// Thrown for set-up failures (a build, save, or bind that failed):
/// the run aborts without a result line.
struct SetupError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------- results

/// Everything a run reports: metrics by name, the correctness tallies
/// behind `attempted`/`failed`, and the settings it ran with.
class Results {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  ///< measurements behind the value
    std::uint64_t beyond = 0;   ///< samples above a percentile value
  };
  struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };

  void Put(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples, std::uint64_t beyond = 0);
  /// Counts `attempted` operations of one kind, `failed` of them failed.
  void Count(const std::string& kind, std::uint64_t attempted,
             std::uint64_t failed);
  void Check(const std::string& kind, bool ok) { Count(kind, 1, ok ? 0 : 1); }
  void Setting(const std::string& key, const std::string& value);

  std::uint64_t attempted() const;
  std::uint64_t failed() const;
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::map<std::string, Tally>& tallies() const { return tallies_; }
  const std::map<std::string, std::string>& settings() const {
    return settings_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, Tally> tallies_;
  std::map<std::string, std::string> settings_;
};

// --------------------------------------------------------------- spans

/// One traced interval. Spans of one request share `request`; `parent`
/// is the enclosing span's id (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  const char* tag = "";  ///< algorithm slug for engine/sketch probes
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-thread span buffer; only its owning thread appends.
class SpanSink {
 public:
  explicit SpanSink(std::uint64_t thread_index)
      : next_id_((thread_index + 1) << 40) {}
  std::uint64_t NewId() { return ++next_id_; }
  void Add(const Span& span) { spans_.push_back(span); }
  /// Adds a root span timed by the caller.
  void Record(const char* name, std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    Span span;
    span.id = NewId();
    span.request = request;
    span.name = name;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    Add(span);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Keeps spans in memory, one sink per thread; written out at the end.
/// A disabled tracer hands out null sinks and every span site is a
/// no-op.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// A fresh sink for the calling thread, or nullptr when disabled.
  SpanSink* NewSink();
  std::vector<Span> Collect() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanSink>> sinks_;
};

/// RAII span: stamps start at construction, records at destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name, std::uint64_t parent = 0,
             std::uint64_t request = 0, const char* tag = "");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Nanoseconds since construction.
  std::uint64_t elapsed_ns() const;

 private:
  SpanSink* sink_;
  Span span_;
};

/// Per-name span aggregates (self = duration minus the time its children
/// cover); WriteSpanFile writes one JSON object per span per line.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);
bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans);

// -------------------------------------------------------------- timing

std::uint64_t NowNs();
/// steady_clock::now() + `seconds`.
std::chrono::steady_clock::time_point Deadline(double seconds);

/// Exact nearest-rank percentile summary of a latency sample.
struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t beyond_p99 = 0;
};
LatencySummary Summarize(std::vector<std::uint64_t> latency_ns);
/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double Percentile(std::vector<double> values, double q);

/// Runs `clients` closed-loop load threads until `deadline`. Each calls
/// step(client, round) for rounds 0, 1, ...; the step issues exactly one
/// request, waits for the reply, checks it, and fills its Outcome.
struct Outcome {
  bool ok = false;
  const char* op = "client.request";  ///< span name in a traced window
  std::uint64_t queries = 0;
  std::uint64_t start_ns = 0;  ///< request sent
  std::uint64_t end_ns = 0;    ///< reply decoded
};
struct LoopResult {
  std::vector<std::uint64_t> latency_ns;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t queries = 0;
  double wall_s = 0.0;
};
LoopResult RunClosedLoop(
    std::size_t clients, std::chrono::steady_clock::time_point deadline,
    const std::function<Outcome(std::size_t, std::uint64_t)>& step);

/// End-to-end metrics every workload reports. An untraced run sets the
/// stack up kSetupRepeats times and measures one segment of the window
/// on each, so every run samples several thread placements: setup_s,
/// request_p50_us, request_p99_us and queries_per_s are medians over
/// those set-ups and segments; peak_rss_mb comes from getrusage.
void PutRequestMetrics(const std::vector<LoopResult>& segments,
                       Results* results);
void PutSetupMetric(const std::vector<double>& setup_seconds,
                    Results* results);
void PutPeakRss(Results* results);

/// Set-ups (and measured segments) per untraced run.
inline constexpr int kSetupRepeats = 10;
/// Every this many rounds a traced client's request is replayed layer
/// by layer (at most kMaxReplaysPerClient per client).
inline constexpr std::uint64_t kReplayEvery = 16;
inline constexpr std::size_t kMaxReplaysPerClient = 128;

/// Request id shared by a live request's span and its replay.
inline std::uint64_t RequestId(std::size_t client, std::uint64_t round) {
  return (static_cast<std::uint64_t>(client + 1) << 32) | round;
}

// --------------------------------------------------------------- stack

/// The served stack: N SketchPods behind a Router, fronted by a
/// ReactorServer on an ephemeral loopback port, all metrics in a private
/// registry so STATS reports this run alone.
class ServeStack {
 public:
  explicit ServeStack(std::size_t pods);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  serve::Router& router() { return *router_; }
  obs::MetricsRegistry& registry() { return registry_; }
  /// A fresh TCP client connection to the reactor.
  std::unique_ptr<serve::SketchClient> Connect();

 private:
  obs::MetricsRegistry registry_;
  std::unique_ptr<serve::Router> router_;
  std::unique_ptr<serve::ReactorServer> server_;
  std::uint16_t port_ = 0;
};

/// Reads the server's metrics over the STATS opcode.
struct StatsView {
  serve::StatsReply reply;
  /// Sum of every counter named `base` or `base{...}`.
  std::uint64_t Counter(const std::string& base) const;
  obs::HistogramSnapshot Histogram(const std::string& name) const;
};
StatsView FetchStats(serve::SketchClient& client);
/// Bucket-wise after - before (both snapshots of one histogram).
obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before);
/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds the rank (the bucket is the one obs::Quantile
/// reports; interpolation keeps sub-bucket resolution).
double InterpolatedQuantile(const obs::HistogramSnapshot& h, double q);

/// Per-pod counters summed over every sketch, read in process.
struct PodTotals {
  std::uint64_t hits = 0;
  std::uint64_t loads = 0;
  std::uint64_t evictions = 0;
};
PodTotals ReadPodTotals(serve::Router& router);

// -------------------------------------------------------------- inputs

/// A batch of random 3-itemsets in both wire form and Itemset form.
struct QueryBatch {
  std::vector<std::vector<std::uint32_t>> wire;
  std::vector<core::Itemset> itemsets;
};
QueryBatch RandomBatch(std::size_t count, std::size_t d, util::Rng& rng);

/// Power-law market baskets (the generator every bench in the repo uses).
core::Database Baskets(std::size_t rows, std::size_t d, util::Rng& rng);

/// True when both vectors hold bit-identical doubles.
bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b);

/// The registered algorithms the catalog serves, with metric-name slugs.
struct Algorithm {
  const char* name;
  const char* slug;
  bool streaming;
};
const std::vector<Algorithm>& CatalogAlgorithms();

/// One IFSK file per algorithm, built from a seeded rows x 32 basket
/// database (shared by serve_catalog and the engine layer probe).
struct Catalog {
  core::Database db;
  std::vector<std::string> paths;       ///< index = CatalogAlgorithms()
  std::vector<double> build_ns_per_row;
};
Catalog BuildCatalog(std::uint64_t seed, std::size_t rows,
                     const std::string& dir, SpanSink* sink);

/// Checks |estimate - true frequency| <= eps for every answer; counts
/// the checks under "for_all_guarantee".
void CheckForAll(const std::vector<double>& estimates,
                 const std::vector<double>& truth, double eps,
                 Results* results);
/// Database::Frequency of every itemset.
std::vector<double> TrueFrequencies(const core::Database& db,
                                    const std::vector<core::Itemset>& ts);

// ----------------------------------------------------------- workloads

/// Each workload runs set-up, its measured window(s) and its checks,
/// writing end-to-end metrics (or per-layer metrics in a traced run)
/// into `results`.
void RunServeBatch(const Config& config, Tracer* tracer, Results* results);
void RunServeCatalog(const Config& config, Tracer* tracer, Results* results);
void RunIngestLive(const Config& config, Tracer* tracer, Results* results);

// -------------------------------------------------------------- layers

/// One live request picked for layer-by-layer replay.
struct ReplaySample {
  std::uint64_t request = 0;
  serve::Opcode opcode = serve::Opcode::kEstimate;
  std::string sketch;
  const QueryBatch* batch = nullptr;
  std::uint64_t live_ns = 0;
  /// Checks the replayed answers (estimates or bits).
  std::function<bool(const std::vector<double>*, const std::vector<bool>*)>
      check;
};

/// Replays each sample through client encode -> DispatchRequest ->
/// client decode, one layer at a time, and puts the serve/client,
/// serve/server and serve/reactor residual metrics.
void ReplayServePath(serve::Router& router,
                     const std::vector<ReplaySample>& samples, SpanSink* sink,
                     Results* results);

/// Forces each named sketch out of its pod and times the Router::Acquire
/// that reloads it: pod.acquire_miss_us.
void ProbeAcquireMiss(serve::Router& router,
                      const std::vector<std::string>& names, SpanSink* sink,
                      Results* results);

/// Window deltas read around a traced window: stage histograms, reactor
/// wakeups, coalescing and pod counters.
struct WindowStats {
  StatsView stats;
  serve::CoalesceStats coalesce;
  PodTotals pods;
};
WindowStats ReadWindowStats(serve::Router& router,
                            serve::SketchClient& stats_client);
void PutServeWindowMetrics(const WindowStats& before,
                           const WindowStats& after, std::uint64_t requests,
                           Results* results);

/// Engine layer for all nine algorithms over a catalog: build, open,
/// estimate_many and are_frequent costs.
void ProbeEngines(const Catalog& catalog, const std::vector<QueryBatch>& batches,
                  bool tiny, SpanSink* sink, Results* results);

/// Streaming builders (all three) and WAL append/checkpoint over `rows`.
void ProbeSketchAndWal(const core::Database& rows, std::uint64_t seed,
                       const std::string& wal_dir, bool tiny, SpanSink* sink,
                       Results* results);

/// A short IngestService run (WAL on, publishing into a one-pod router)
/// for the workloads that do not ingest: ingest.push_wait_ns_per_row,
/// ingest.publish_us and ingest.wal_fsync_us.
void ProbeIngestService(const core::Database& rows, std::uint64_t seed,
                        const std::string& wal_dir, SpanSink* sink,
                        Results* results);

/// The catalog's 16 batches of 64 3-itemsets: serve_catalog's requests
/// and the engine probe's queries.
std::vector<QueryBatch> ProbeBatches(std::uint64_t seed, std::size_t d);

/// Size knobs shared by the workloads.
std::size_t CatalogRows(bool tiny);
inline constexpr std::size_t kCatalogColumns = 32;
inline constexpr std::size_t kRowsPerSnapshot = 2000;

/// The stream both ingest_live and the ingest probe run: STREAM-SUBSAMPLE
/// over width-d rows, a snapshot every kRowsPerSnapshot rows, WAL
/// on_snapshot in `wal_dir`, metrics into `registry`.
ingest::IngestOptions StreamOptions(std::uint64_t seed, std::size_t d,
                                    const std::string& wal_dir,
                                    obs::MetricsRegistry* registry);

}  // namespace ifbench

#endif  // IFBENCH_BENCH_H_
