// micro_load: sketch open latency on the perf trajectory.
//
//   micro_load --json [out.json] [--rounds 200] [--rows 20000] [--cols 64]
//
// Measures how long it takes to get from an IFSK file on disk to
// answered queries through Engine::Open: mmap + in-place validation +
// borrowed column views. One RELEASE-DB sketch (the database itself,
// the largest payload a load could copy) is built and saved once at
// arena v2; every row then re-opens those same files, so the page cache
// is warm and the numbers isolate the software cost of loading (true
// cold-cache opens depend on the storage stack, not on this code). The
// files live in a private temp directory removed on every exit path.
//
// Emits the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}
// with one row per kernel (threads is always 1; the "@mapped" suffix
// names the load path, kept from when a copying path was measured
// beside it):
//   open_cold@mapped     first in-process open + first query (includes
//                        view materialization); batch=1, ns per open
//   open_warm@mapped     steady-state re-open + one query, the pod
//                        re-admission cost; batch=1, ns per open
//   evict_reload@mapped  SketchPod churn: two sketches ping-pong through
//                        a budget that holds only one, so every Acquire
//                        evicts (munmaps) and reloads; batch=1, ns per
//                        Acquire+query
//   query_steady@mapped  batched estimate_many on a held-open engine;
//                        batch=10000, ns per query; answers are asserted
//                        bit-identical to the built engine's on every
//                        run.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "engine.h"
#include "scratch_dir.h"
#include "serve/pod.h"
#include "util/random.h"

namespace {

using namespace ifsketch;
using bench::Params;
using bench::ElapsedNs;

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::size_t rounds = 200;
  std::size_t rows_n = 20000;
  std::size_t cols_d = 64;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::ConsumeJsonFlag(argc, argv, &i, &out_path)) continue;
    if (arg == "--rounds" && i + 1 < argc) {
      rounds = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--rows" && i + 1 < argc) {
      rows_n = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--cols" && i + 1 < argc) {
      cols_d = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: micro_load --json [out.json] [--rounds 200] "
                   "[--rows 20000] [--cols 64]\n");
      return 2;
    }
  }
  if (rounds == 0 || rows_n == 0 || cols_d < 4) {
    std::fprintf(stderr, "error: --rounds/--rows/--cols need sane values\n");
    return 2;
  }

  // One big row-major sketch (RELEASE-DB: the database itself, the
  // largest payload a load could copy), saved twice for the churn row.
  util::Rng rng(71);
  const core::Database db =
      data::PowerLawBaskets(rows_n, cols_d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "RELEASE-DB", Params(), rng);
  if (!built.has_value()) {
    std::fprintf(stderr, "error: Engine::Build failed\n");
    return 1;
  }
  const bench::ScratchDir scratch("micro_load_");
  const std::string path_a = scratch.File("a.ifsk");
  const std::string path_b = scratch.File("b.ifsk");
  if (!scratch.ok() || !built->Save(path_a) || !built->Save(path_b)) {
    std::fprintf(stderr, "error: cannot write bench sketches\n");
    return 1;
  }

  util::Rng probe_rng(4711);
  util::Rng batch_rng(4711);
  const auto probe = bench::RandomQueries(cols_d, 1, probe_rng);
  const auto batch = bench::RandomQueries(cols_d, 10000, batch_rng);
  std::vector<double> expected;
  built->estimate_many(batch, &expected);

  std::vector<bench::Row> rows;

  // -- open_cold: first open in this process (first query included, so
  // lazy views and first page touches count).
  {
    const auto start = std::chrono::steady_clock::now();
    auto engine = Engine::Open(path_a);
    if (!engine.has_value() || engine->estimate(probe[0]) < 0.0) {
      std::fprintf(stderr, "error: cold open failed\n");
      return 1;
    }
    rows.push_back({"open_cold@mapped", 1, 1, ElapsedNs(start)});
  }

  // -- open_warm: steady-state re-open + one query per round.
  {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      auto engine = Engine::Open(path_a);
      if (!engine.has_value() || engine->estimate(probe[0]) < 0.0) {
        std::fprintf(stderr, "error: warm open failed\n");
        return 1;
      }
    }
    rows.push_back({"open_warm@mapped", 1, 1,
                    ElapsedNs(start) / static_cast<double>(rounds)});
  }

  // -- evict_reload: pod churn with a budget that holds one sketch.
  {
    serve::SketchPod pod(built->resident_bytes());
    pod.AddSketch("a", path_a);
    pod.AddSketch("b", path_b);
    const std::size_t churn = rounds < 50 ? rounds : 50;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < churn; ++r) {
      const auto engine = pod.Acquire(r % 2 == 0 ? "a" : "b");
      if (engine == nullptr || engine->estimate(probe[0]) < 0.0) {
        std::fprintf(stderr, "error: pod churn failed\n");
        return 1;
      }
    }
    rows.push_back({"evict_reload@mapped", 1, 1,
                    ElapsedNs(start) / static_cast<double>(churn)});
  }

  // -- query_steady: batched queries on a held-open engine; answers
  // must be bit-identical to the built engine's.
  {
    auto engine = Engine::Open(path_a);
    if (!engine.has_value()) {
      std::fprintf(stderr, "error: steady open failed\n");
      return 1;
    }
    std::vector<double> answers;
    engine->estimate_many(batch, &answers);  // warm the views
    if (answers != expected) {  // bitwise-exact doubles
      std::fprintf(stderr,
                   "error: opened answers diverged from the built engine\n");
      return 1;
    }
    const std::size_t reps = 10;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      engine->estimate_many(batch, &answers);
    }
    rows.push_back({"query_steady@mapped", 1, batch.size(),
                    ElapsedNs(start) /
                        static_cast<double>(reps * batch.size())});
  }

  return bench::WriteRows(rows, out_path) ? 0 : 1;
}
