// The parallel batched query path: answers must be bit-identical to the
// serial scalar loop at every thread count, for every registered
// algorithm, and one Engine must be safe to query from many threads at
// once (the lazy view materialization is std::call_once-guarded; run
// this under -fsanitize=thread to validate the whole chain).

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "mining/apriori.h"
#include "sketch/sketch_file.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch {
namespace {

core::SketchParams EstimatorParams() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

// Randomized batch of 1..4-attribute queries plus an Apriori-level-shaped
// run of prefix siblings (so the prefix-sharing kernel engages) and the
// empty itemset.
std::vector<core::Itemset> RandomBatch(std::size_t d, util::Rng& rng) {
  std::vector<core::Itemset> queries;
  queries.emplace_back(d);
  for (int i = 0; i < 150; ++i) {
    core::Itemset t(d);
    const std::size_t size = 1 + rng.UniformInt(4);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    queries.push_back(std::move(t));
  }
  // Sibling runs: {0,1,x} for ascending x, then {2,3,x}.
  for (std::size_t x = 2; x < d; ++x) {
    queries.emplace_back(d, std::vector<std::size_t>{0, 1, x});
  }
  for (std::size_t x = 4; x < d; ++x) {
    queries.emplace_back(d, std::vector<std::size_t>{2, 3, x});
  }
  return queries;
}

class ParallelEquivalenceTest : public testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { util::ThreadPool::SetDefaultThreadCount(0); }
};

TEST_P(ParallelEquivalenceTest, BatchedMatchesScalarAtEveryThreadCount) {
  util::Rng rng(41);
  const std::size_t d = 12;
  const core::Database db =
      data::PowerLawBaskets(800, d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, GetParam(), EstimatorParams(), rng);
  ASSERT_TRUE(built.has_value());
  const Engine& engine = *built;
  const auto queries = RandomBatch(d, rng);

  // Scalar reference, computed on a single thread.
  util::ThreadPool::SetDefaultThreadCount(1);
  std::vector<double> scalar(queries.size());
  std::vector<bool> scalar_bits(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    scalar[i] = engine.estimate(queries[i]);
    scalar_bits[i] = engine.is_frequent(queries[i]);
  }

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool::SetDefaultThreadCount(threads);
    std::vector<double> batched;
    engine.estimate_many(queries, &batched);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(scalar[i], batched[i])
          << GetParam() << " diverged on query " << i << " at " << threads
          << " threads (" << queries[i].ToString() << ")";
    }
    std::vector<bool> bits;
    engine.are_frequent(queries, &bits);
    ASSERT_EQ(bits.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(scalar_bits[i], bits[i])
          << GetParam() << " indicator diverged on query " << i << " at "
          << threads << " threads";
    }
  }
}

TEST_P(ParallelEquivalenceTest, MineMatchesScalarAtEveryThreadCount) {
  util::Rng rng(42);
  const std::size_t d = 14;
  const core::Database db =
      data::PowerLawBaskets(1000, d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, GetParam(), EstimatorParams(), rng);
  ASSERT_TRUE(built.has_value());

  mining::AprioriOptions opt;
  opt.min_frequency = 0.08;
  opt.max_size = 4;
  const auto estimator = sketch::LoadEstimator(built->file());
  ASSERT_NE(estimator, nullptr);
  const auto scalar = mining::MineWithEstimator(*estimator, d, opt);

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool::SetDefaultThreadCount(threads);
    const auto mined = built->mine(opt);
    ASSERT_EQ(scalar.size(), mined.size()) << threads << " threads";
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(scalar[i].itemset, mined[i].itemset) << i;
      ASSERT_EQ(scalar[i].frequency, mined[i].frequency) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ParallelEquivalenceTest,
                         testing::Values("SUBSAMPLE", "SUBSAMPLE-WOR",
                                         "RELEASE-DB", "IMPORTANCE-SAMPLE",
                                         "MEDIAN-BOOST(SUBSAMPLE)"),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

// Many threads hammer one freshly-built Engine whose views are not yet
// materialized: the std::call_once guards must serialize the first load
// and every thread must read the same answers.
TEST(ConcurrentEngineTest, ConcurrentQueriesOnOneEngine) {
  util::Rng rng(43);
  const std::size_t d = 10;
  const core::Database db =
      data::PowerLawBaskets(600, d, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  ASSERT_TRUE(built.has_value());
  const Engine& engine = *built;  // views NOT materialized yet
  const auto queries = RandomBatch(d, rng);

  util::ThreadPool::SetDefaultThreadCount(4);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<double>> estimates(kThreads);
  std::vector<std::vector<bool>> bits(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Mix batched and scalar entry points; the first calls race on the
      // call_once view materialization by design.
      engine.estimate_many(queries, &estimates[t]);
      engine.are_frequent(queries, &bits[t]);
      estimates[t][0] = engine.estimate(queries[0]);
    });
  }
  for (auto& th : threads) th.join();

  std::vector<double> expected;
  engine.estimate_many(queries, &expected);
  expected[0] = engine.estimate(queries[0]);
  std::vector<bool> expected_bits;
  engine.are_frequent(queries, &expected_bits);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(estimates[t], expected) << "thread " << t;
    ASSERT_EQ(bits[t], expected_bits) << "thread " << t;
  }
  util::ThreadPool::SetDefaultThreadCount(0);
}

// Engines opened on several threads at once, as a server's dispatch
// threads reload evicted sketches. Opening a MEDIAN-BOOST or a for-all
// SUBSAMPLE file sizes its summary through util::LogBinomial, which must
// not touch shared state (glibc's lgamma writes the global `signgam`);
// under -fsanitize=thread any such race fails this test. Every thread
// must also read the single-threaded answers.
TEST(ConcurrentEngineTest, ConcurrentOpensOfSizedSketches) {
  util::Rng rng(44);
  const std::size_t d = 12;
  const core::Database db =
      data::PowerLawBaskets(800, d, 1.0, 0.5, 4, 3, 0.2, rng);
  core::SketchParams for_all = EstimatorParams();
  for_all.scope = core::Scope::kForAll;
  const auto queries = RandomBatch(d, rng);

  // paths[i][0] is file i at v2 (mapped), paths[i][1] at v1 (decoded).
  std::vector<std::array<std::string, 2>> paths;
  std::vector<std::vector<double>> expected;
  for (const char* algorithm : {"MEDIAN-BOOST(SUBSAMPLE)", "SUBSAMPLE"}) {
    auto built = Engine::Build(db, algorithm, for_all, rng);
    ASSERT_TRUE(built.has_value()) << algorithm;
    const std::string stem = testing::TempDir() + "/concurrent_open_" +
                             std::to_string(paths.size());
    paths.push_back({stem + ".ifsk", stem + "_v1.ifsk"});
    ASSERT_TRUE(built->Save(paths.back()[0]));
    ASSERT_TRUE(sketch::SaveSketchFile(paths.back()[1], built->file(),
                                       sketch::arena::kVersionLegacy));
    expected.emplace_back();
    built->estimate_many(queries, &expected.back());
  }

  constexpr std::size_t kThreads = 6;
  std::vector<std::vector<std::vector<double>>> answers(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < paths.size(); ++i) {
        // Alternate the mapped and decoded files across threads.
        auto opened = Engine::Open(paths[i][(t + i) % 2]);
        answers[t].emplace_back();
        if (opened.has_value()) {
          opened->estimate_many(queries, &answers[t].back());
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < paths.size(); ++i) {
      ASSERT_EQ(answers[t][i], expected[i]) << "thread " << t << " file " << i;
    }
  }
}

}  // namespace
}  // namespace ifsketch
