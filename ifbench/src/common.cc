#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.h"
#include "data/generators.h"
#include "serve/server.h"

namespace ifbench {

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

// ------------------------------------------------------------- results

void Results::Put(const std::string& name, double value,
                  const std::string& unit, std::uint64_t samples,
                  std::uint64_t beyond) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit, samples, beyond};
}

void Results::Count(const std::string& kind, std::uint64_t attempted,
                    std::uint64_t failed) {
  std::lock_guard<std::mutex> lock(mu_);
  Tally& t = tallies_[kind];
  t.attempted += attempted;
  t.failed += failed;
}

void Results::Setting(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_[key] = value;
}

std::uint64_t Results::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [kind, t] : tallies_) sum += t.attempted;
  return sum;
}

std::uint64_t Results::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t sum = 0;
  for (const auto& [kind, t] : tallies_) sum += t.failed;
  return sum;
}

// --------------------------------------------------------------- spans

SpanSink* Tracer::NewSink() {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  sinks_.push_back(std::make_unique<SpanSink>(sinks_.size()));
  return sinks_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& sink : sinks_) {
    all.insert(all.end(), sink->spans().begin(), sink->spans().end());
  }
  return all;
}

ScopedSpan::ScopedSpan(SpanSink* sink, const char* name, std::uint64_t parent,
                       std::uint64_t request, const char* tag)
    : sink_(sink) {
  span_.name = name;
  span_.tag = tag;
  span_.parent = parent;
  span_.request = request;
  if (sink_ != nullptr) span_.id = sink_->NewId();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (sink_ == nullptr) return;
  span_.end_ns = NowNs();
  sink_->Add(span_);
}

std::uint64_t ScopedSpan::elapsed_ns() const {
  return NowNs() - span_.start_ns;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& s : spans) {
    const std::uint64_t duration = s.end_ns - s.start_ns;
    // Self time: the span minus the union of its children's intervals,
    // clipped to the span (children may overlap each other).
    std::uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const Span* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      for (const auto& [lo, hi] : iv) {
        if (lo > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      covered += cur_hi - cur_lo;
    }
    std::string key = s.name;
    if (s.tag[0] != '\0') key += std::string("[") + s.tag + "]";
    SpanTotals& t = totals[key];
    ++t.count;
    t.total_ns += duration;
    t.self_ns += duration - std::min(duration, covered);
  }
  return totals;
}

bool WriteSpanFile(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  // Names and tags are compile-time identifiers: no JSON escaping needed.
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"tag\":\"" << s.tag << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out.flush());
}

// -------------------------------------------------------------- timing

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::chrono::steady_clock::time_point Deadline(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

namespace {

// Nearest-rank index for quantile q over n sorted samples.
std::size_t RankIndex(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

LatencySummary Summarize(std::vector<std::uint64_t> latency_ns) {
  LatencySummary s;
  s.samples = latency_ns.size();
  if (latency_ns.empty()) return s;
  std::sort(latency_ns.begin(), latency_ns.end());
  const std::uint64_t p50 = latency_ns[RankIndex(latency_ns.size(), 0.50)];
  const std::uint64_t p99 = latency_ns[RankIndex(latency_ns.size(), 0.99)];
  s.p50_us = static_cast<double>(p50) / 1e3;
  s.p99_us = static_cast<double>(p99) / 1e3;
  s.beyond_p99 = static_cast<std::uint64_t>(
      latency_ns.end() -
      std::upper_bound(latency_ns.begin(), latency_ns.end(), p99));
  return s;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[RankIndex(values.size(), q)];
}

LoopResult RunClosedLoop(
    std::size_t clients, std::chrono::steady_clock::time_point deadline,
    const std::function<Outcome(std::size_t, std::uint64_t)>& step) {
  std::vector<LoopResult> per(clients);
  const std::uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& mine = per[c];
      mine.latency_ns.reserve(1 << 16);
      for (std::uint64_t r = 0; std::chrono::steady_clock::now() < deadline;
           ++r) {
        const Outcome o = step(c, r);
        ++mine.requests;
        if (!o.ok) {
          ++mine.failed;
          continue;
        }
        mine.queries += o.queries;
        mine.latency_ns.push_back(o.end_ns - o.start_ns);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopResult all;
  all.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const LoopResult& r : per) {
    all.latency_ns.insert(all.latency_ns.end(), r.latency_ns.begin(),
                          r.latency_ns.end());
    all.requests += r.requests;
    all.failed += r.failed;
    all.queries += r.queries;
  }
  return all;
}

void PutRequestMetrics(const std::vector<LoopResult>& segments,
                       Results* results) {
  std::vector<double> p50, p99, qps;
  std::uint64_t samples = 0, beyond = 0, requests = 0;
  for (const LoopResult& segment : segments) {
    const LatencySummary lat = Summarize(segment.latency_ns);
    p50.push_back(lat.p50_us);
    p99.push_back(lat.p99_us);
    qps.push_back(static_cast<double>(segment.queries) / segment.wall_s);
    samples += lat.samples;
    beyond += lat.beyond_p99;
    requests += segment.requests;
  }
  results->Put("request_p50_us", Percentile(p50, 0.5), "us", samples);
  results->Put("request_p99_us", Percentile(p99, 0.5), "us", samples, beyond);
  results->Put("queries_per_s", Percentile(qps, 0.5), "queries/s", requests);
}

void PutSetupMetric(const std::vector<double>& setup_seconds,
                    Results* results) {
  results->Put("setup_s", Percentile(setup_seconds, 0.5), "s",
               setup_seconds.size());
}

void PutPeakRss(Results* results) {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // ru_maxrss is in KiB on Linux.
  results->Put("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MiB", 1);
}

// --------------------------------------------------------------- stack

ServeStack::ServeStack(std::size_t pods) {
  std::vector<std::shared_ptr<serve::SketchPod>> pod_list;
  for (std::size_t i = 0; i < pods; ++i) {
    pod_list.push_back(std::make_shared<serve::SketchPod>(
        serve::SketchPod::kUnlimited, &registry_, std::to_string(i)));
  }
  serve::RouterOptions options;
  options.registry = &registry_;
  router_ = std::make_unique<serve::Router>(std::move(pod_list), options);
  serve::ReactorOptions reactor;
  reactor.loop_threads = kLoopThreads;
  reactor.dispatch_threads = kDispatchThreads;
  server_ = std::make_unique<serve::ReactorServer>(*router_, reactor);
  if (!server_->Listen(0)) throw SetupError("reactor: cannot bind loopback");
  port_ = server_->port();
}

ServeStack::~ServeStack() {
  server_.reset();  // closes every connection before the router goes
  router_.reset();
}

std::unique_ptr<serve::SketchClient> ServeStack::Connect() {
  auto transport = serve::TcpConnect(port_);
  if (transport == nullptr) throw SetupError("cannot connect to reactor");
  return std::make_unique<serve::SketchClient>(std::move(transport));
}

std::uint64_t StatsView::Counter(const std::string& base) const {
  std::uint64_t sum = 0;
  for (const auto& c : reply.counters) {
    if (c.name == base || c.name.rfind(base + "{", 0) == 0) sum += c.value;
  }
  return sum;
}

obs::HistogramSnapshot StatsView::Histogram(const std::string& name) const {
  obs::HistogramSnapshot h;
  for (const auto& row : reply.histograms) {
    if (row.name != name) continue;
    h.count = row.count;
    h.sum = row.sum;
    h.max = row.max;
    h.buckets = row.buckets;
  }
  return h;
}

StatsView FetchStats(serve::SketchClient& client) {
  auto reply = client.Stats();
  if (!reply.has_value()) throw SetupError("STATS failed: " + client.last_error());
  return StatsView{std::move(*reply)};
}

obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d;
  d.count = after.count - std::min(after.count, before.count);
  d.sum = after.sum - std::min(after.sum, before.sum);
  d.max = after.max;
  d.buckets = after.buckets;
  for (std::size_t i = 0; i < before.buckets.size() && i < d.buckets.size();
       ++i) {
    d.buckets[i] -= std::min(d.buckets[i], before.buckets[i]);
  }
  return d;
}

double InterpolatedQuantile(const obs::HistogramSnapshot& h, double q) {
  std::uint64_t total = 0;
  for (std::uint64_t b : h.buckets) total += b;
  if (total == 0) return 0.0;
  const double rank = std::max(1.0, std::ceil(q * static_cast<double>(total)));
  double cum = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket == 0.0 || cum + in_bucket < rank) {
      cum += in_bucket;
      continue;
    }
    const double lo =
        i == 0 ? 0.0 : static_cast<double>(obs::BucketUpperBound(i - 1) + 1);
    const double hi = static_cast<double>(obs::BucketUpperBound(i));
    return lo + (hi - lo) * (rank - cum) / in_bucket;
  }
  return static_cast<double>(h.max);
}

PodTotals ReadPodTotals(serve::Router& router) {
  PodTotals t;
  for (const auto& pod : router.pods()) {
    for (const serve::SketchStats& s : pod->stats()) {
      t.hits += s.hits;
      t.loads += s.loads;
      t.evictions += s.evictions;
    }
  }
  return t;
}

// -------------------------------------------------------------- inputs

QueryBatch RandomBatch(std::size_t count, std::size_t d, util::Rng& rng) {
  QueryBatch batch;
  batch.wire.reserve(count);
  batch.itemsets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(d);
    while (t.size() < 3) t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    batch.wire.push_back(std::move(attrs));
    batch.itemsets.push_back(std::move(t));
  }
  return batch;
}

core::Database Baskets(std::size_t rows, std::size_t d, util::Rng& rng) {
  return data::PowerLawBaskets(rows, d, 1.0, 0.5, 4, 3, 0.2, rng);
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

const std::vector<Algorithm>& CatalogAlgorithms() {
  static const std::vector<Algorithm> kAll = {
      {"RELEASE-DB", "release_db", false},
      {"RELEASE-ANSWERS", "release_answers", false},
      {"SUBSAMPLE", "subsample", false},
      {"SUBSAMPLE-WOR", "subsample_wor", false},
      {"IMPORTANCE-SAMPLE", "importance_sample", false},
      {"MEDIAN-BOOST(SUBSAMPLE)", "median_boost_subsample", false},
      {"STREAM-SUBSAMPLE", "stream_subsample", true},
      {"STREAM-STRATIFIED", "stream_stratified", true},
      {"STREAM-IMPORTANCE", "stream_importance", true},
  };
  return kAll;
}

Catalog BuildCatalog(std::uint64_t seed, std::size_t rows,
                     const std::string& dir, SpanSink* sink) {
  Catalog catalog;
  util::Rng rng(seed);
  catalog.db = Baskets(rows, kCatalogColumns, rng);
  const auto& algorithms = CatalogAlgorithms();
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    util::Rng build_rng(seed * 1000003 + i + 1);
    std::optional<Engine> engine;
    std::uint64_t build_ns = 0;
    {
      ScopedSpan span(sink, "engine.build", 0, 0, algorithms[i].slug);
      engine = Engine::Build(catalog.db, algorithms[i].name, Params(),
                             build_rng);
      build_ns = span.elapsed_ns();
    }
    if (!engine.has_value()) {
      throw SetupError(std::string("Engine::Build failed for ") +
                       algorithms[i].name);
    }
    const std::string path =
        dir + "/catalog-" + algorithms[i].slug + ".ifsk";
    std::string error;
    if (!engine->Save(path, &error)) throw SetupError("save: " + error);
    catalog.paths.push_back(path);
    catalog.build_ns_per_row.push_back(static_cast<double>(build_ns) /
                                       static_cast<double>(rows));
  }
  return catalog;
}

void CheckForAll(const std::vector<double>& estimates,
                 const std::vector<double>& truth, double eps,
                 Results* results) {
  std::uint64_t violations = 0;
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    if (!(std::fabs(estimates[i] - truth[i]) <= eps)) ++violations;
  }
  results->Count("for_all_guarantee", estimates.size(), violations);
}

std::vector<double> TrueFrequencies(const core::Database& db,
                                    const std::vector<core::Itemset>& ts) {
  std::vector<double> truth;
  truth.reserve(ts.size());
  for (const core::Itemset& t : ts) truth.push_back(db.Frequency(t));
  return truth;
}

std::size_t CatalogRows(bool tiny) { return tiny ? 2000 : 20000; }

ingest::IngestOptions StreamOptions(std::uint64_t seed, std::size_t d,
                                    const std::string& wal_dir,
                                    obs::MetricsRegistry* registry) {
  ingest::IngestOptions options;
  options.algorithm = "STREAM-SUBSAMPLE";
  options.params = Params();
  options.d = d;
  options.seed = seed;
  options.rows_per_snapshot = kRowsPerSnapshot;
  options.wal_dir = wal_dir;
  options.wal_sync = ingest::WalSyncPolicy::kOnSnapshot;
  options.registry = registry;
  return options;
}

std::vector<QueryBatch> ProbeBatches(std::uint64_t seed, std::size_t d) {
  util::Rng rng(seed * 31 + 17);
  std::vector<QueryBatch> batches;
  for (int i = 0; i < 16; ++i) batches.push_back(RandomBatch(64, d, rng));
  return batches;
}

}  // namespace ifbench
