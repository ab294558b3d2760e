// Microbenchmarks: the Engine facade's batched query path vs N scalar
// calls, now with a threads x batch-size sweep.
//
// Two modes:
//
//   micro_engine [gbench flags]      Google Benchmark registrations
//                                    (BM_EngineScalar10k vs
//                                    BM_EngineBatched10k etc).
//   micro_engine --json [out.json] [--threads 1,2,4,8] [--batch 1000,10000]
//                [--kernel all|scalar,avx2,avx512]
//                                    machine-readable perf sweep.
//
// The --json mode emits one JSON array with the stable schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}
// so successive PRs can diff perf (see BENCH_*.json in CI artifacts).
// Kernels:
//   scalar        loop of engine.estimate() over the batch (threads
//                 reported as 1: the scalar path never touches the pool)
//   batched       one engine.estimate_many() over the batch, fanned out
//                 across the default thread pool
//   mine_scalar   full Apriori run through the scalar oracle; batch is 0
//                 and ns_per_query is per full mine() call
//   mine_batched  full Apriori run through the level-batched,
//                 prefix-sharing driver; same reporting as mine_scalar
//
// --kernel repeats the whole sweep once per SIMD dispatch tier
// (util/kernels.h), with each row's kernel field suffixed "@tier", e.g.
// "batched@avx2"; "all" expands to every tier this build+CPU supports,
// and unsupported names in an explicit list are skipped with a warning.
// Without --kernel, rows keep their unsuffixed names and run on the
// default dispatch (IFSKETCH_KERNEL env or CPUID best).
//
// Answers are bit-identical across every kernel pairing, dispatch tier
// and thread count; only the work-sharing differs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/generators.h"
#include "engine.h"
#include "util/kernels.h"
#include "util/thread_pool.h"
#include "util/random.h"

namespace {

using namespace ifsketch;
using bench::Params;

constexpr std::size_t kRows = 100000;
constexpr std::size_t kColumns = 64;
constexpr std::size_t kQueries = 10000;

const Engine& SharedEngine() {
  static const Engine* engine = [] {
    util::Rng rng(71);
    const core::Database db =
        data::PowerLawBaskets(kRows, kColumns, 1.0, 0.5, 4, 3, 0.2, rng);
    auto built = Engine::Build(db, "SUBSAMPLE", Params(), rng);
    return new Engine(*std::move(built));
  }();
  return *engine;
}

std::vector<core::Itemset> Queries(std::size_t count) {
  util::Rng rng(72);
  return bench::RandomQueries(kColumns, count, rng);
}

// ------------------------------------------------- Google Benchmark mode

void BM_EngineScalar10k(benchmark::State& state) {
  const Engine& engine = SharedEngine();
  const auto queries = Queries(kQueries);
  std::vector<double> answers(queries.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      answers[i] = engine.estimate(queries[i]);
    }
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
}
BENCHMARK(BM_EngineScalar10k)->Unit(benchmark::kMillisecond);

// The batched path at several pool sizes; Arg is the thread count.
void BM_EngineBatched10k(benchmark::State& state) {
  util::ThreadPool::SetDefaultThreadCount(
      static_cast<std::size_t>(state.range(0)));
  const Engine& engine = SharedEngine();
  const auto queries = Queries(kQueries);
  std::vector<double> answers;
  for (auto _ : state) {
    engine.estimate_many(queries, &answers);
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(queries.size()));
  util::ThreadPool::SetDefaultThreadCount(0);
}
BENCHMARK(BM_EngineBatched10k)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Batched mining: the same Apriori run, scalar oracle vs level-batched.
void BM_EngineMineScalar(benchmark::State& state) {
  const Engine& engine = SharedEngine();
  const auto estimator = sketch::LoadEstimator(engine.file());
  mining::AprioriOptions opt;
  opt.min_frequency = 0.05;
  opt.max_size = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mining::MineWithEstimator(*estimator, kColumns, opt));
  }
}
BENCHMARK(BM_EngineMineScalar)->Unit(benchmark::kMillisecond);

void BM_EngineMineBatched(benchmark::State& state) {
  const Engine& engine = SharedEngine();
  mining::AprioriOptions opt;
  opt.min_frequency = 0.05;
  opt.max_size = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.mine(opt));
  }
}
BENCHMARK(BM_EngineMineBatched)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ JSON sweep mode

// Times `body` (one "run" answering `per_run` queries) until at least
// ~100ms or 3 runs have elapsed, after one warmup, and returns ns per
// query.
template <typename Body>
double TimeNsPerQuery(std::size_t per_run, const Body& body) {
  using Clock = std::chrono::steady_clock;
  body();  // warmup: view materialization, page faults
  std::size_t runs = 0;
  const auto start = Clock::now();
  auto elapsed = start - start;
  while (runs < 3 ||
         elapsed < std::chrono::milliseconds(100)) {
    body();
    ++runs;
    elapsed = Clock::now() - start;
  }
  const double total_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count());
  return total_ns / static_cast<double>(runs) /
         static_cast<double>(per_run == 0 ? 1 : per_run);
}

// One full sweep on the currently active dispatch tier; `suffix` is ""
// (legacy row names) or "@tier" when --kernel is sweeping tiers.
void SweepOnePass(const std::string& suffix,
                  const std::vector<std::size_t>& thread_counts,
                  const std::vector<std::size_t>& batch_sizes,
                  std::vector<bench::Row>* rows) {
  const Engine& engine = SharedEngine();
  for (std::size_t batch : batch_sizes) {
    const auto queries = Queries(batch);
    std::vector<double> answers(batch);
    // Scalar baseline: never touches the pool, so report it once.
    const double scalar_ns = TimeNsPerQuery(batch, [&] {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        answers[i] = engine.estimate(queries[i]);
      }
    });
    rows->push_back({"scalar" + suffix, 1, batch, scalar_ns});
    for (std::size_t threads : thread_counts) {
      util::ThreadPool::SetDefaultThreadCount(threads);
      const double ns = TimeNsPerQuery(
          batch, [&] { engine.estimate_many(queries, &answers); });
      rows->push_back({"batched" + suffix, threads, batch, ns});
    }
  }

  mining::AprioriOptions opt;
  opt.min_frequency = 0.05;
  opt.max_size = 3;
  const auto estimator = sketch::LoadEstimator(engine.file());
  util::ThreadPool::SetDefaultThreadCount(1);
  rows->push_back({"mine_scalar" + suffix, 1, 0,
                   TimeNsPerQuery(0, [&] {
                     benchmark::DoNotOptimize(mining::MineWithEstimator(
                         *estimator, kColumns, opt));
                   })});
  for (std::size_t threads : thread_counts) {
    util::ThreadPool::SetDefaultThreadCount(threads);
    rows->push_back({"mine_batched" + suffix, threads, 0,
                     TimeNsPerQuery(0, [&] {
                       benchmark::DoNotOptimize(engine.mine(opt));
                     })});
  }
  util::ThreadPool::SetDefaultThreadCount(0);
}

int RunJsonSweep(const std::string& out_path,
                 const std::vector<std::size_t>& thread_counts,
                 const std::vector<std::size_t>& batch_sizes,
                 const std::vector<std::string>& kernel_tiers) {
  std::vector<bench::Row> rows;
  if (kernel_tiers.empty()) {
    SweepOnePass("", thread_counts, batch_sizes, &rows);
  } else {
    for (const std::string& tier : kernel_tiers) {
      if (!util::SetKernelTier(tier)) {
        std::fprintf(stderr,
                     "warning: kernel tier \"%s\" not usable on this "
                     "build/CPU; skipping\n",
                     tier.c_str());
        continue;
      }
      SweepOnePass("@" + tier, thread_counts, batch_sizes, &rows);
    }
    // Back to auto-dispatch for anything running after the sweep.
    util::SetKernelTier(
        util::SupportedKernelTiers().back());
  }

  return bench::WriteRows(rows, out_path) ? 0 : 1;
}

// Splits a comma-separated tier list; "all" expands to every tier this
// build+CPU supports.
std::vector<std::string> ParseKernelList(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& token : bench::SplitList(csv)) {
    if (token != "all") {
      out.push_back(token);
      continue;
    }
    for (util::KernelTier tier : util::SupportedKernelTiers()) {
      out.emplace_back(util::KernelTierName(tier));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<std::size_t> batch_sizes = {1000, 10000};
  std::vector<std::string> kernel_tiers;  // empty = default dispatch

  // Strip the sweep flags; everything left goes to Google Benchmark.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (bench::ConsumeJsonFlag(argc, argv, &i, &out_path)) {
      json = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      thread_counts = bench::ParseList(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_sizes = bench::ParseList(argv[++i]);
    } else if (arg == "--kernel" && i + 1 < argc) {
      kernel_tiers = ParseKernelList(argv[++i]);
      if (kernel_tiers.empty()) {
        std::fprintf(stderr,
                     "error: --kernel needs tier names "
                     "(all|scalar|avx2|avx512)\n");
        return 2;
      }
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (json) {
    if (thread_counts.empty() || batch_sizes.empty()) {
      std::fprintf(stderr, "error: --threads/--batch need positive values\n");
      return 2;
    }
    return RunJsonSweep(out_path, thread_counts, batch_sizes, kernel_tiers);
  }
  int gb_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&gb_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
