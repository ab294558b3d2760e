// Router: deterministic name -> shard assignment, and request coalescing
// that returns exactly the answers each client would get serially (the
// fused batches are answer-preserving by the batched-kernel contract).

#include "serve/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ifsketch::serve {
namespace {

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 2;
  p.eps = 0.1;
  p.delta = 0.1;
  p.scope = core::Scope::kForEach;
  p.answer = core::Answer::kEstimator;
  return p;
}

std::string MakeSketchFile(const std::string& stem, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(400, 12, 0.4, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", Params(), rng);
  EXPECT_TRUE(engine.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(engine->Save(path));
  return path;
}

std::vector<core::Itemset> RandomQueries(std::size_t count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Itemset> queries;
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(12);
    const std::size_t size = 1 + rng.UniformInt(3);
    while (t.size() < size) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(12)));
    }
    queries.push_back(std::move(t));
  }
  return queries;
}

std::vector<std::shared_ptr<SketchPod>> MakePods(std::size_t count) {
  std::vector<std::shared_ptr<SketchPod>> pods;
  for (std::size_t i = 0; i < count; ++i) {
    pods.push_back(std::make_shared<SketchPod>());
  }
  return pods;
}

TEST(RouterTest, ShardAssignmentIsDeterministicAndCoversPods) {
  Router router(MakePods(4));
  bool used[4] = {false, false, false, false};
  for (int i = 0; i < 64; ++i) {
    const std::string name = "sketch-" + std::to_string(i);
    const std::size_t shard = router.ShardOf(name);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(router.ShardOf(name), shard);  // pure function of the name
    used[shard] = true;
  }
  // FNV-1a over 64 names spreads across all 4 shards.
  EXPECT_TRUE(used[0] && used[1] && used[2] && used[3]);

  // Same names, independent router: identical assignment (no per-process
  // salt -- clients and restarts must agree).
  Router other(MakePods(4));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "sketch-" + std::to_string(i);
    EXPECT_EQ(other.ShardOf(name), router.ShardOf(name));
  }
}

TEST(RouterTest, AddSketchLandsOnOwningShardOnly) {
  Router router(MakePods(3));
  const std::string path = MakeSketchFile("router_shard", 21);
  ASSERT_TRUE(router.AddSketch("hello", path));
  EXPECT_FALSE(router.AddSketch("hello", path));  // duplicate
  const std::size_t owner = router.ShardOf("hello");
  for (std::size_t i = 0; i < router.pod_count(); ++i) {
    EXPECT_EQ(router.pods()[i]->Knows("hello"), i == owner) << i;
  }
  EXPECT_NE(router.Acquire("hello"), nullptr);
  EXPECT_EQ(router.Acquire("nobody"), nullptr);
}

TEST(RouterTest, RoutesAndAnswersMatchDirectEngine) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_direct", 22);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(50, 23);

  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  std::vector<bool> expected_bits;
  direct->are_frequent(queries, &expected_bits);

  const auto batch = core::QueryBatch::FromItemsets(queries);
  std::vector<double> answers;
  ASSERT_EQ(router.EstimateMany("s", batch, &answers), RouteStatus::kOk);
  EXPECT_EQ(answers, expected);
  std::vector<bool> bits;
  ASSERT_EQ(router.AreFrequent("s", batch, &bits), RouteStatus::kOk);
  EXPECT_EQ(bits, expected_bits);

  EXPECT_EQ(router.EstimateMany("nope", batch, &answers),
            RouteStatus::kUnknownSketch);
}

TEST(RouterTest, MismatchedUniverseFailsWithoutAborting) {
  Router router(MakePods(1));
  ASSERT_TRUE(router.AddSketch("s", MakeSketchFile("router_bad", 24)));
  const auto wrong =
      core::QueryBatch::FromItemsets({core::Itemset(99, {0, 98})});
  std::vector<double> answers;
  EXPECT_EQ(router.EstimateMany("s", wrong, &answers),
            RouteStatus::kUnsupportedQuery);
}

// Many clients hammer the same sketch concurrently; whatever fusion the
// group-commit slot performs, every client must receive exactly the
// answers of its own serial request.
TEST(RouterTest, CoalescedAnswersEqualSerialAnswers) {
  Router router(MakePods(2));
  const std::string path = MakeSketchFile("router_fuse", 25);
  ASSERT_TRUE(router.AddSketch("s", path));

  constexpr std::size_t kClients = 8;
  constexpr int kRounds = 20;
  std::vector<core::QueryBatch> batches;
  std::vector<std::vector<double>> expected(kClients);
  const auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto queries = RandomQueries(30 + c, 100 + c);
    batches.push_back(core::QueryBatch::FromItemsets(queries));
    direct->estimate_many(queries, &expected[c]);
  }

  util::ThreadPool::SetDefaultThreadCount(2);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> answers;
      for (int r = 0; r < kRounds; ++r) {
        if (router.EstimateMany("s", batches[c], &answers) !=
                RouteStatus::kOk ||
            answers != expected[c]) {
          mismatches.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);

  const CoalesceStats stats = router.coalesce_stats();
  // Every request was served...
  EXPECT_EQ(stats.requests, kClients * kRounds);
  // ...by at most that many engine batches (strictly fewer when any
  // fusion happened; equality is legal on a machine that never
  // overlapped two requests).
  EXPECT_LE(stats.batches, stats.requests);
  EXPECT_GT(stats.batches, 0u);
  util::ThreadPool::SetDefaultThreadCount(0);
}

// Estimate and indicator requests interleave on one name: the drain
// split must fuse each flavor separately and still answer both exactly.
TEST(RouterTest, MixedFlavorCoalescingStaysExact) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("router_mixed", 26);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(40, 27);
  const auto batch = core::QueryBatch::FromItemsets(queries);

  const auto direct = Engine::Open(path);
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  std::vector<bool> expected_bits;
  direct->are_frequent(queries, &expected_bits);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < 6; ++c) {
    threads.emplace_back([&, c] {
      for (int r = 0; r < 15; ++r) {
        if (c % 2 == 0) {
          std::vector<double> answers;
          if (router.EstimateMany("s", batch, &answers) !=
                  RouteStatus::kOk ||
              answers != expected) {
            mismatches.fetch_add(1);
            return;
          }
        } else {
          std::vector<bool> bits;
          if (router.AreFrequent("s", batch, &bits) != RouteStatus::kOk ||
              bits != expected_bits) {
            mismatches.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ifsketch::serve
