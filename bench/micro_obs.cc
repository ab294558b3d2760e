// micro_obs: the observability layer's overhead on the perf trajectory.
//
//   micro_obs --json [out.json] [--rounds 2000000] [--batch 256]
//             [--threads 4]
//
// The PR 8 contract this bench pins: instrumenting the query hot path
// (one request counter + one RequestTrace + one kernel StageTimer per
// batch, exactly what DispatchRequest adds) moves steady-state query
// throughput by at most 2%. The two sides run as paired, interleaved
// blocks of calls, the side that goes first alternating pair by pair, so
// host drift lands on both halves of a pair alike. The bench FAILS (exit
// 1) only when a one-sided 99% lower confidence bound on the median
// per-pair overhead exceeds 2% -- an overhead above the contract beyond
// what block-to-block noise explains -- so CI catches an accidentally
// fattened hot path without failing on a noisy host. Histogram::Record
// is a handful of relaxed atomics -- single-digit ns on bare metal, low
// teens on virtualized CI hardware -- reported here but not gated (the
// absolute number tracks the host's atomic RMW latency, not our code).
//
// Kernels, in the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}:
//
//   record          Histogram::Record, single thread; ns per record
//   record_mt       Histogram::Record, --threads concurrent recorders
//                   (contended bucket cells); ns per record per thread
//   counter_add     sharded Counter::Add, --threads concurrent adders;
//                   ns per add per thread
//   counter_hot     Counter::Add, single thread (the uncontended cost)
//   snapshot        MetricsRegistry::Snapshot over a serving-sized
//                   registry (~60 metrics); ns per snapshot
//   render_text     RenderText over the same registry; ns per render
//   query_baseline  engine.estimate_many batches, uninstrumented
//   query_steady    the same batches under per-request instrumentation
//                   (request counter + RequestTrace + kernel timer);
//                   the gate above compares it with query_baseline
//
// The record/counter numbers are per *operation*; batch reports how
// many operations the timed loop ran.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace {

using namespace ifsketch;
using bench::Params;
using bench::ElapsedNs;
using bench::Row;

/// Populates `registry` with a serving-shaped metric set: op counters,
/// stage histograms, per-pod and per-sketch series -- what Snapshot and
/// RenderText walk on a real server.
void PopulateServingShape(obs::MetricsRegistry& registry) {
  util::Rng rng(99);
  for (const char* op :
       {"estimate", "are_frequent", "info", "refresh", "subscribe",
        "health", "stats"}) {
    registry.GetCounter(obs::LabeledName("serve_requests_total", "op", op))
        ->Add(static_cast<std::uint64_t>(rng.UniformInt(1000)));
    auto* h = registry.GetHistogram(
        obs::LabeledName("serve_request_ns", "op", op));
    for (int i = 0; i < 64; ++i) {
      h->Record(static_cast<std::uint64_t>(1000 + rng.UniformInt(1000000)));
    }
  }
  for (const char* stage :
       {"decode", "route", "acquire", "kernel", "encode"}) {
    std::string name = "serve_stage_";
    name += stage;
    name += "_ns";
    auto* h = registry.GetHistogram(name);
    for (int i = 0; i < 64; ++i) {
      h->Record(static_cast<std::uint64_t>(100 + rng.UniformInt(100000)));
    }
  }
  for (int pod = 0; pod < 4; ++pod) {
    const std::string p = std::to_string(pod);
    registry.GetGauge(obs::LabeledName("serve_pod_inflight", "pod", p));
    registry.GetCounter(
        obs::LabeledName("serve_pod_probes_total", "pod", p));
    for (int s = 0; s < 4; ++s) {
      std::string sketch = "s";
      sketch += std::to_string(s);
      registry
          .GetCounter(obs::LabeledName2("serve_sketch_queries_total", "pod",
                                        p, "sketch", sketch))
          ->Add(static_cast<std::uint64_t>(rng.UniformInt(10000)));
    }
  }
  registry.GetCounter("ingest_rows_total")->Add(123456);
  registry.GetGauge("ingest_ring_occupancy")->Set(17);
  registry.GetHistogram("ingest_publish_ns")->Record(2000000);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t rounds = 2000000;
  std::size_t batch = 256;
  std::size_t threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::ConsumeJsonFlag(argc, argv, &i, &out_path)) continue;
    if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_obs --json [out.json] [--rounds 2000000] "
                   "[--batch 256] [--threads 4]\n");
      return 2;
    }
  }
  if (rounds == 0 || batch == 0 || threads == 0 || threads > 256) {
    std::fprintf(stderr, "error: --rounds/--batch/--threads need sane "
                 "values\n");
    return 2;
  }
  std::vector<Row> rows;

  // -- record: single-thread Histogram::Record. The value pattern walks
  // buckets so the branch predictor cannot learn one index.
  {
    obs::Histogram h;
    util::Rng rng(1);
    std::vector<std::uint64_t> values(4096);
    for (auto& v : values) {
      v = static_cast<std::uint64_t>(rng.UniformInt(1 << 20));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      h.Record(values[i & 4095]);
    }
    const double ns = ElapsedNs(start) / static_cast<double>(rounds);
    rows.push_back({"record", 1, rounds, ns});
    std::fprintf(stderr,
                 "record: %.2f ns/op (target: single digit on bare "
                 "metal)\n",
                 ns);
  }

  // -- record_mt: the same histogram under concurrent recorders.
  {
    obs::Histogram h;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    const std::size_t per_thread = rounds / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        util::Rng rng(t + 1);
        std::vector<std::uint64_t> values(4096);
        for (auto& v : values) {
          v = static_cast<std::uint64_t>(rng.UniformInt(1 << 20));
        }
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < per_thread; ++i) {
          h.Record(values[i & 4095]);
        }
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    rows.push_back({"record_mt", threads, per_thread,
                    ElapsedNs(start) / static_cast<double>(per_thread)});
  }

  // -- counter_hot / counter_add: sharded counter, alone and contended.
  {
    obs::Counter c;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < rounds; ++i) c.Add();
    rows.push_back({"counter_hot", 1, rounds,
                    ElapsedNs(start) / static_cast<double>(rounds)});
  }
  {
    obs::Counter c;
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    const std::size_t per_thread = rounds / threads;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (std::size_t i = 0; i < per_thread; ++i) c.Add();
      });
    }
    const auto start = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    rows.push_back({"counter_add", threads, per_thread,
                    ElapsedNs(start) / static_cast<double>(per_thread)});
  }

  // -- snapshot / render_text over a serving-shaped registry.
  {
    obs::MetricsRegistry registry;
    PopulateServingShape(registry);
    constexpr std::size_t kSnapRounds = 2000;
    const auto start = std::chrono::steady_clock::now();
    std::size_t total_metrics = 0;
    for (std::size_t i = 0; i < kSnapRounds; ++i) {
      total_metrics += registry.Snapshot().counters.size();
    }
    rows.push_back({"snapshot", 1, kSnapRounds,
                    ElapsedNs(start) / static_cast<double>(kSnapRounds)});
    const auto rstart = std::chrono::steady_clock::now();
    std::size_t total_bytes = 0;
    for (std::size_t i = 0; i < kSnapRounds; ++i) {
      total_bytes += registry.RenderText().size();
    }
    rows.push_back({"render_text", 1, kSnapRounds,
                    ElapsedNs(rstart) / static_cast<double>(kSnapRounds)});
    if (total_metrics == 0 || total_bytes == 0) return 1;  // keep honest
  }

  // -- query_baseline vs query_steady: the 2% contract. Same engine,
  // same queries; steady adds exactly the per-request instrumentation
  // DispatchRequest introduces (op counter, RequestTrace, kernel
  // StageTimer). kPairs pairs of kBlockRounds-call blocks, interleaved,
  // the side that runs first alternating.
  constexpr std::size_t kPairs = 400;
  constexpr std::size_t kBlockRounds = 10;
  bench::PairedRatio paired;
  double baseline_ns = 0.0;
  double steady_ns = 0.0;
  {
    util::Rng rng(7);
    const core::Database db =
        data::PowerLawBaskets(20000, 32, 1.0, 0.5, 4, 3, 0.2, rng);
    auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
    if (!engine.has_value()) {
      std::fprintf(stderr, "error: Engine::Build failed\n");
      return 1;
    }
    const auto queries = bench::RandomQueries(32, batch, rng);
    obs::MetricsRegistry registry;
    obs::Counter* requests = registry.GetCounter(
        obs::LabeledName("serve_requests_total", "op", "estimate"));
    std::vector<double> answers;
    const auto baseline_block = [&] {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < kBlockRounds; ++r) {
        engine->estimate_many(queries, &answers);
      }
      return ElapsedNs(start);
    };
    const auto steady_block = [&] {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < kBlockRounds; ++r) {
        requests->Add();
        obs::RequestTrace trace(&registry, "estimate");
        obs::StageTimer kernel(obs::Stage::kKernel);
        engine->estimate_many(queries, &answers);
      }
      return ElapsedNs(start);
    };
    // Warm both paths once.
    baseline_block();
    steady_block();
    paired = bench::RunPairedBlocks(kPairs, baseline_block, steady_block);
    const double denom = static_cast<double>(kPairs * kBlockRounds) *
                         static_cast<double>(batch);
    baseline_ns = paired.baseline_ns / denom;
    steady_ns = paired.candidate_ns / denom;
    rows.push_back({"query_baseline", 1, batch, baseline_ns});
    rows.push_back({"query_steady", 1, batch, steady_ns});
  }

  if (!bench::WriteRows(rows, out_path, 2)) return 1;

  const double median = paired.median - 1.0;
  const double lower = paired.lower_bound - 1.0;
  std::fprintf(stderr,
               "query_steady: %.2f ns/query vs baseline %.2f ns/query; "
               "per-pair overhead median %+.2f%%, 99%% lower bound %+.2f%% "
               "(contract: bound <= 2%%)\n",
               steady_ns, baseline_ns, 100.0 * median, 100.0 * lower);
  if (lower > 0.02) {
    std::fprintf(stderr,
                 "error: instrumentation overhead exceeds the 2%% "
                 "contract\n");
    return 1;
  }
  return 0;
}
