// ifbench main: parses the run, stamps host and run metadata, runs one
// workload, and prints a report line followed by the result line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are exactly the end-to-end set (untraced) or the
// per-layer set (--trace 1) that BENCHMARK.json declares.
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "util/kernels.h"
#include "util/thread_pool.h"

#ifndef IFBENCH_BUILD_TYPE
#define IFBENCH_BUILD_TYPE "unknown"
#endif

namespace ifbench {
namespace {

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> kNames = {
      "setup_s",       "request_p50_us", "request_p99_us",
      "queries_per_s", "ok_share",       "peak_rss_mb"};
  return kNames;
}

std::vector<std::string> PerLayerMetrics() {
  std::vector<std::string> names = {
      "client.encode_ns_per_query", "client.decode_ns_per_query",
      "dispatch.ns_per_query",      "stage.decode_ns",
      "stage.route_ns",             "stage.acquire_ns",
      "stage.kernel_ns",            "stage.encode_ns",
      "reactor.residual_us",        "reactor.wakeups_per_request",
      "router.fused_share",         "router.requests_per_batch",
      "pod.hit_ratio",              "pod.evictions_per_1k_requests",
      "pod.acquire_miss_us"};
  for (const char* family :
       {"engine.estimate_ns_per_query.", "engine.are_frequent_ns_per_query.",
        "engine.open_us.", "engine.build_ns_per_row."}) {
    for (const Algorithm& a : CatalogAlgorithms()) {
      names.push_back(std::string(family) + a.slug);
    }
  }
  for (const Algorithm& a : CatalogAlgorithms()) {
    if (a.streaming) {
      names.push_back(std::string("sketch.observe_ns_per_row.") + a.slug);
    }
  }
  for (const char* name :
       {"sketch.summary_us", "ingest.push_wait_ns_per_row", "ingest.publish_us",
        "ingest.wal_append_ns_per_row", "ingest.wal_checkpoint_us",
        "ingest.wal_fsync_us", "trace.overhead_share", "trace.span_count"}) {
    names.push_back(name);
  }
  return names;
}

/// The private scratch directory: created up front, removed on every
/// way out of main (normal return, check failure, or set-up exception).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& path) : path_(path) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Wall time of `threads` threads each spinning the same fixed work.
double SpinSeconds(unsigned threads) {
  std::atomic<std::uint64_t> sink{0};
  const std::uint64_t start = NowNs();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = t + 1;
      for (int i = 0; i < (1 << 25); ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink.fetch_add(x);
    });
  }
  for (auto& t : pool) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricJson(const Results::Metric& m, bool detail) {
  std::string out = "{\"value\": " + Num(m.value) + ", \"unit\": " + Quote(m.unit);
  if (detail) {
    out += ", \"samples\": " + std::to_string(m.samples);
    if (m.beyond > 0) out += ", \"beyond\": " + std::to_string(m.beyond);
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: ifbench --workload serve_batch|serve_catalog|"
               "ingest_live --seed N --seconds S --trace 0|1 --tmp DIR "
               "[--spans-dir DIR] [--source-id ID] [--tiny] "
               "[--perturb-expected]\n");
  return 2;
}

}  // namespace
}  // namespace ifbench

int main(int argc, char** argv) {
  using namespace ifbench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--tmp" && has_value) {
      config.tmp_dir = argv[++i];
    } else if (arg == "--spans-dir" && has_value) {
      config.spans_dir = argv[++i];
    } else if (arg == "--source-id" && has_value) {
      config.source_id = argv[++i];
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--perturb-expected") {
      config.perturb_expected = true;
    } else {
      return Usage();
    }
  }
  const std::map<std::string, std::function<void(const Config&, Tracer*,
                                                 Results*)>>
      workloads = {{"serve_batch", RunServeBatch},
                   {"serve_catalog", RunServeCatalog},
                   {"ingest_live", RunIngestLive}};
  const auto workload = workloads.find(config.workload);
  if (workload == workloads.end() || !(config.seconds > 0) ||
      config.tmp_dir.empty()) {
    return Usage();
  }
  const ScratchDir scratch(config.tmp_dir);

  util::ThreadPool::SetDefaultThreadCount(kPoolThreads);
  Results results;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = SpinSeconds(1);
  results.Setting("host.cpu_model", CpuModel());
  results.Setting("host.nproc", std::to_string(nproc));
  results.Setting("host.parallel_probe",
                  Num(SpinSeconds(nproc) / one) + " (wall of " +
                      std::to_string(nproc) + " spinning threads / wall of 1)");
  results.Setting("host.spin_1_thread_s", Num(one));
  results.Setting("build.source", config.source_id);
  results.Setting("build.type", IFBENCH_BUILD_TYPE);
  results.Setting("build.kernel_tier",
                  util::KernelTierName(util::ActiveKernelTier()));
  results.Setting("run.workload", config.workload);
  results.Setting("run.seed", std::to_string(config.seed));
  results.Setting("run.seconds", Num(config.seconds));
  results.Setting("run.trace", config.trace ? "1" : "0");
  results.Setting("run.tiny", config.tiny ? "1" : "0");
  results.Setting("threads.reactor_loops", std::to_string(kLoopThreads));
  results.Setting("threads.reactor_dispatch", std::to_string(kDispatchThreads));
  results.Setting("threads.pool", std::to_string(kPoolThreads));
  results.Setting("threads.load",
                  config.workload == "ingest_live" ? "3" : "2");
  results.Setting("run.setup_repeats",
                  std::to_string(config.trace ? 1 : kSetupRepeats));

  Tracer tracer(config.trace);
  try {
    workload->second(config, &tracer, &results);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ifbench: %s: %s\n", config.workload.c_str(),
                 e.what());
    return 1;
  }

  std::map<std::string, SpanTotals> span_totals;
  std::string span_file;
  if (config.trace) {
    const std::vector<Span> spans = tracer.Collect();
    results.Put("trace.span_count", static_cast<double>(spans.size()), "count",
                spans.size());
    span_totals = SummarizeSpans(spans);
    if (!config.spans_dir.empty()) {
      std::filesystem::create_directories(config.spans_dir);
      span_file = config.spans_dir + "/" + config.workload + "-seed" +
                  std::to_string(config.seed) + ".jsonl";
      if (!WriteSpanFile(span_file, spans)) {
        std::fprintf(stderr, "ifbench: cannot write %s\n", span_file.c_str());
        return 1;
      }
    }
  }
  const std::uint64_t attempted = results.attempted();
  const std::uint64_t failed = results.failed();
  const double failed_share =
      attempted == 0 ? 1.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);
  if (!config.trace) {
    results.Put("ok_share", 1.0 - failed_share, "fraction", attempted);
  }

  // Report line: metadata, every metric with its sample count, the
  // correctness tallies, and the span self-time summary.
  std::ostringstream report;
  report << "{\"report\": {\"settings\": {";
  const char* sep = "";
  for (const auto& [key, value] : results.settings()) {
    report << sep << Quote(key) << ": " << Quote(value);
    sep = ", ";
  }
  report << "}, \"failed_share\": " << Num(failed_share) << ", \"checks\": {";
  sep = "";
  for (const auto& [kind, t] : results.tallies()) {
    report << sep << Quote(kind) << ": {\"attempted\": " << t.attempted
           << ", \"failed\": " << t.failed << "}";
    sep = ", ";
  }
  report << "}, \"metrics\": {";
  sep = "";
  for (const auto& [name, m] : results.metrics()) {
    report << sep << Quote(name) << ": " << MetricJson(m, true);
    sep = ", ";
  }
  report << "}";
  if (config.trace) {
    report << ", \"span_file\": " << Quote(span_file) << ", \"spans\": {";
    sep = "";
    for (const auto& [name, t] : span_totals) {
      report << sep << Quote(name) << ": {\"count\": " << t.count
             << ", \"total_ms\": " << Num(static_cast<double>(t.total_ns) / 1e6)
             << ", \"self_ms\": " << Num(static_cast<double>(t.self_ns) / 1e6)
             << "}";
      sep = ", ";
    }
    report << "}";
  }
  report << "}}";
  std::printf("%s\n", report.str().c_str());

  // Result line: exactly the declared metric set for this mode.
  std::ostringstream line;
  line << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted)
       << ", \"failed\": " << failed << ", \"metrics\": {";
  sep = "";
  const std::vector<std::string> declared =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const std::string& name : declared) {
    const auto it = results.metrics().find(name);
    if (it == results.metrics().end()) {
      std::fprintf(stderr, "ifbench: metric %s was not measured\n",
                   name.c_str());
      return 1;
    }
    line << sep << Quote(name) << ": " << MetricJson(it->second, false);
    sep = ", ";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  return 0;
}
