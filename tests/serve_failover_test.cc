// Replication and failover: HRW placement determinism, health-state
// transitions with backoff probes, transparent failover that keeps
// answers bit-identical, load spreading across replicas, client-side
// retry over fault-injected transports, and error propagation for
// REFRESH/SUBSCRIBE on unknown names as the client observes it on the
// wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/client.h"
#include "serve/pod.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "serve_test_server.h"
#include "util/random.h"

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

core::QueryBatch RandomBatch(std::size_t count, std::uint64_t seed) {
  return core::QueryBatch::FromItemsets(RandomQueries(count, seed));
}

std::vector<std::vector<std::uint32_t>> AsWire(
    const std::vector<core::Itemset>& queries) {
  std::vector<std::vector<std::uint32_t>> wire;
  for (const core::Itemset& t : queries) {
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    wire.push_back(std::move(attrs));
  }
  return wire;
}

std::vector<std::shared_ptr<SketchPod>> MakePods(std::size_t count) {
  std::vector<std::shared_ptr<SketchPod>> pods;
  for (std::size_t i = 0; i < count; ++i) {
    pods.push_back(std::make_shared<SketchPod>());
  }
  return pods;
}

RouterOptions Replicated(std::size_t r) {
  RouterOptions options;
  options.replication = r;
  options.fail_threshold = 2;
  options.probe_backoff = std::chrono::milliseconds(30);
  options.probe_backoff_max = std::chrono::milliseconds(200);
  return options;
}

PodFault FailAcquire() {
  PodFault fault;
  fault.fail_acquire = true;
  return fault;
}

// ---------------------------------------------------------- placement

TEST(FailoverTest, ReplicaSetsAreDeterministicDistinctAndOrdered) {
  Router router(MakePods(5), Replicated(3));
  Router twin(MakePods(5), Replicated(3));
  for (int i = 0; i < 64; ++i) {
    const std::string name = "sketch-" + std::to_string(i);
    const auto replicas = router.ReplicasOf(name);
    ASSERT_EQ(replicas.size(), 3u);
    // All distinct pods, all in range.
    for (std::size_t a = 0; a < replicas.size(); ++a) {
      ASSERT_LT(replicas[a], 5u);
      for (std::size_t b = a + 1; b < replicas.size(); ++b) {
        EXPECT_NE(replicas[a], replicas[b]) << name;
      }
    }
    // Pure function of the name: an independent router (fresh process,
    // restart) computes the identical ordered set.
    EXPECT_EQ(twin.ReplicasOf(name), replicas) << name;
    // The primary is the HRW winner.
    EXPECT_EQ(router.ShardOf(name), replicas.front()) << name;
  }
}

TEST(FailoverTest, ReplicationClampsToPodCount) {
  Router router(MakePods(2), Replicated(8));
  EXPECT_EQ(router.replication(), 2u);
  EXPECT_EQ(router.ReplicasOf("x").size(), 2u);
  Router solo(MakePods(1));  // default options: R=1, old behavior
  EXPECT_EQ(solo.replication(), 1u);
  EXPECT_EQ(solo.ReplicasOf("x"), std::vector<std::size_t>{0});
}

TEST(FailoverTest, AddSketchRegistersOnEveryReplica) {
  Router router(MakePods(4), Replicated(2));
  const std::string path = MakeSketchFile("failover_reg", 31);
  ASSERT_TRUE(router.AddSketch("name", path));
  const auto replicas = router.ReplicasOf("name");
  std::size_t knowing = 0;
  for (std::size_t i = 0; i < router.pod_count(); ++i) {
    if (router.pods()[i]->Knows("name")) {
      ++knowing;
      EXPECT_TRUE(std::find(replicas.begin(), replicas.end(), i) !=
                  replicas.end())
          << i;
    }
  }
  EXPECT_EQ(knowing, 2u);
  // Registering the same name again fails on every replica.
  EXPECT_FALSE(router.AddSketch("name", path));
}

// ------------------------------------------------------------ failover

TEST(FailoverTest, FailoverKeepsAnswersBitIdentical) {
  Router router(MakePods(2), Replicated(2));
  const std::string path = MakeSketchFile("failover_bits", 32);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(40, 7);
  auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);
  const auto batch = core::QueryBatch::FromItemsets(queries);

  std::vector<double> before;
  ASSERT_EQ(router.EstimateMany("s", batch, &before), RouteStatus::kOk);
  EXPECT_EQ(before, expected);

  // Kill the primary: every request transparently fails over and the
  // answers never change by a bit.
  SketchPod& primary = *router.pods()[router.ShardOf("s")];
  primary.SetFault(FailAcquire());
  for (int i = 0; i < 5; ++i) {
    std::vector<double> answers;
    ASSERT_EQ(router.EstimateMany("s", batch, &answers), RouteStatus::kOk)
        << i;
    EXPECT_EQ(answers, expected) << i;
  }
  // With EVERY replica refusing, the name is known but unservable.
  for (const auto& pod : router.pods()) pod->SetFault(FailAcquire());
  std::vector<double> answers;
  EXPECT_EQ(router.EstimateMany("s", batch, &answers),
            RouteStatus::kLoadFailed);
  for (const auto& pod : router.pods()) pod->SetFault(PodFault{});
  ASSERT_EQ(router.EstimateMany("s", batch, &answers), RouteStatus::kOk);
  EXPECT_EQ(answers, expected);
}

TEST(FailoverTest, HealthWalksSuspectDownAndProbesBack) {
  Router router(MakePods(2), Replicated(2));
  const std::string path = MakeSketchFile("failover_health", 33);
  ASSERT_TRUE(router.AddSketch("s", path));
  const std::size_t primary = router.ShardOf("s");
  router.pods()[primary]->SetFault(FailAcquire());

  // First failure marks the primary suspect; the healthy replica takes
  // over and -- because suspect pods are deprioritized, not retried
  // while a healthy peer serves -- the count stays at one.
  ASSERT_NE(router.Acquire("s"), nullptr);  // failed over, still served
  EXPECT_EQ(router.pod_health()[primary].health, PodHealth::kSuspect);
  ASSERT_NE(router.Acquire("s"), nullptr);
  auto health = router.pod_health();
  EXPECT_EQ(health[primary].health, PodHealth::kSuspect);
  EXPECT_EQ(health[primary].consecutive_failures, 1u);

  // Fault the secondary too: the next requests walk healthy then
  // suspect, every attempt fails, and the primary crosses the
  // fail_threshold into kDown. A total outage is client-visible.
  const std::size_t secondary = 1 - primary;
  router.pods()[secondary]->SetFault(FailAcquire());
  EXPECT_EQ(router.Acquire("s"), nullptr);
  EXPECT_EQ(router.Acquire("s"), nullptr);
  health = router.pod_health();
  EXPECT_EQ(health[primary].health, PodHealth::kDown);
  EXPECT_GE(health[primary].consecutive_failures, 2u);
  EXPECT_EQ(health[secondary].health, PodHealth::kDown);

  // Revive the primary; once its backoff elapses the next request
  // probes it and it rejoins as healthy while the secondary stays down.
  router.pods()[primary]->SetFault(PodFault{});
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_NE(router.Acquire("s"), nullptr);
  health = router.pod_health();
  EXPECT_EQ(health[primary].health, PodHealth::kHealthy);
  EXPECT_EQ(health[primary].consecutive_failures, 0u);
  EXPECT_GE(health[primary].probes, 1u);
  EXPECT_EQ(health[secondary].health, PodHealth::kDown);
}

TEST(FailoverTest, SerialHotNameSpreadsAcrossReplicas) {
  Router router(MakePods(2), Replicated(2));
  const std::string path = MakeSketchFile("failover_spread", 34);
  ASSERT_TRUE(router.AddSketch("hot", path));
  const auto batch = RandomBatch(10, 9);
  for (int i = 0; i < 8; ++i) {
    std::vector<double> answers;
    ASSERT_EQ(router.EstimateMany("hot", batch, &answers), RouteStatus::kOk);
  }
  // Equal-load ties rotate, so serial traffic on one hot name lands on
  // BOTH replicas rather than pinning the first.
  for (const auto& pod : router.pods()) {
    std::uint64_t served = 0;
    for (const auto& s : pod->stats()) {
      if (s.name == "hot") served = s.queries;
    }
    EXPECT_GT(served, 0u);
  }
}

TEST(FailoverTest, EmptyPodParticipatesHarmlessly) {
  // One replica of everything lands on a pod that catalogs nothing;
  // routing must neither crash nor mark anyone unhealthy over it.
  Router router(MakePods(2), Replicated(1));
  const std::string path = MakeSketchFile("failover_empty", 35);
  std::string on_zero = "a";
  // Find a name whose single replica is pod 0, leaving pod 1 empty.
  while (router.ShardOf(on_zero) != 0) on_zero += "a";
  ASSERT_TRUE(router.AddSketch(on_zero, path));
  EXPECT_TRUE(router.pods()[1]->Names().empty());

  std::vector<double> answers;
  EXPECT_EQ(router.EstimateMany("unknown", RandomBatch(3, 1), &answers),
            RouteStatus::kUnknownSketch);
  EXPECT_EQ(router.Acquire("unknown"), nullptr);
  ASSERT_EQ(router.EstimateMany(on_zero, RandomBatch(3, 1), &answers),
            RouteStatus::kOk);
  const auto health = router.pod_health();
  EXPECT_EQ(health[0].health, PodHealth::kHealthy);
  EXPECT_EQ(health[1].health, PodHealth::kHealthy);
  EXPECT_EQ(health[1].failovers, 0u);
}

// ------------------------------------------------- fault injection

TEST(FaultyTransportTest, FailAfterBytesDeliversExactPrefixThenDies) {
  auto [a, b] = SocketPair();
  FaultPlan plan;
  plan.fail_after_bytes = 5;
  FaultyTransport faulty(std::move(a), plan);
  const char payload[10] = "123456789";
  EXPECT_FALSE(faulty.WriteAll(payload, 10));
  EXPECT_TRUE(faulty.dead());
  char got[10] = {};
  // The peer receives exactly the 5-byte prefix, then EOF.
  EXPECT_TRUE(b->ReadAll(got, 5));
  EXPECT_EQ(std::string(got, 5), "12345");
  EXPECT_FALSE(b->ReadAll(got, 1));
  // Dead is latched: every later op fails without touching the wire.
  EXPECT_FALSE(faulty.WriteAll(payload, 1));
  EXPECT_FALSE(faulty.ReadAll(got, 1));
}

TEST(FaultyTransportTest, ScheduleIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    auto [a, b] = SocketPair();
    FaultPlan plan;
    plan.seed = seed;
    plan.fail_write = 0.3;
    FaultyTransport faulty(std::move(a), plan);
    std::vector<bool> outcomes;
    const char byte = 'x';
    for (int i = 0; i < 64 && !faulty.dead(); ++i) {
      outcomes.push_back(faulty.WriteAll(&byte, 1));
    }
    return outcomes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));  // and the seed actually matters
}

// --------------------------------------------------- client retry

TEST(ClientRetryTest, RetriesTransportFailureOnFreshConnection) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("retry_ok", 36);
  ASSERT_TRUE(router.AddSketch("s", path));
  const auto queries = RandomQueries(8, 11);
  auto direct = Engine::Open(path);
  ASSERT_TRUE(direct.has_value());
  std::vector<double> expected;
  direct->estimate_many(queries, &expected);

  TestServer server(router);
  // Connection 1 dies on its first read (reply never arrives);
  // connection 2 is clean. The call must succeed on attempt 2.
  std::atomic<int> connections{0};
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(1);
  {
    SketchClient client(
        [&]() -> std::unique_ptr<Transport> {
          auto inner = server.Connect();
          if (connections++ == 0) {
            FaultPlan plan;
            plan.fail_read = 1.0;
            return std::make_unique<FaultyTransport>(std::move(inner),
                                                     plan);
          }
          return inner;
        },
        policy);
    const auto answers = client.EstimateMany("s", AsWire(queries));
    ASSERT_TRUE(answers.has_value()) << client.last_error();
    EXPECT_EQ(*answers, expected);  // bit-identical through the retry
    EXPECT_EQ(client.last_attempts(), 2);
    EXPECT_EQ(client.last_failure(), FailureKind::kNone);
    EXPECT_EQ(connections.load(), 2);
  }
}

TEST(ClientRetryTest, RequestRefusalsDoNotRetry) {
  Router router(MakePods(1));
  const std::string path = MakeSketchFile("retry_refuse", 37);
  ASSERT_TRUE(router.AddSketch("s", path));
  TestServer server(router);
  std::atomic<int> connections{0};
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = std::chrono::milliseconds(1);
  {
    SketchClient client(
        [&] {
          ++connections;
          return server.Connect();
        },
        policy);
    // Unknown sketch: a server verdict, not a transport failure.
    const auto answers = client.EstimateMany("nope", {{1, 2}});
    EXPECT_FALSE(answers.has_value());
    EXPECT_EQ(client.last_failure(), FailureKind::kRequest);
    EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
    EXPECT_EQ(client.last_attempts(), 1);
    EXPECT_EQ(connections.load(), 1);
    // The connection survived the refusal: the next request reuses it.
    const auto info = client.Info("s");
    EXPECT_TRUE(info.has_value()) << client.last_error();
    EXPECT_EQ(connections.load(), 1);
  }
}

TEST(ClientRetryTest, AttemptDeadlineTurnsSilenceIntoRetryableFailure) {
  // A silent peer behind every connection: every attempt times out
  // rather than blocking forever, then the attempt budget runs out.
  std::vector<std::unique_ptr<Transport>> parked;  // keep peers alive
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.attempt_timeout = std::chrono::milliseconds(40);
  policy.initial_backoff = std::chrono::milliseconds(1);
  SketchClient client(
      [&] {
        auto [client_end, server_end] = SocketPair();
        parked.push_back(std::move(server_end));
        return std::move(client_end);
      },
      policy);
  const auto start = std::chrono::steady_clock::now();
  const auto answers = client.EstimateMany("s", {{1}});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(answers.has_value());
  EXPECT_EQ(client.last_failure(), FailureKind::kTransport);
  EXPECT_EQ(client.last_attempts(), 2);
  EXPECT_LT(elapsed, std::chrono::seconds(5));  // bounded, not hung
}

TEST(ClientRetryTest, OverallDeadlineCapsTheRetryLoop) {
  std::vector<std::unique_ptr<Transport>> parked;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.attempt_timeout = std::chrono::milliseconds(20);
  policy.deadline = std::chrono::milliseconds(80);
  policy.initial_backoff = std::chrono::milliseconds(5);
  SketchClient client(
      [&] {
        auto [client_end, server_end] = SocketPair();
        parked.push_back(std::move(server_end));
        return std::move(client_end);
      },
      policy);
  const auto answers = client.EstimateMany("s", {{1}});
  EXPECT_FALSE(answers.has_value());
  EXPECT_EQ(client.last_failure(), FailureKind::kTransport);
  // Nowhere near the 100-attempt budget: the deadline cut it off.
  EXPECT_LT(client.last_attempts(), 20);
}

// ------------------------------------- wire-status error propagation

TEST(ClientWireStatusTest, RefreshAndSubscribeUnknownNames) {
  Router router(MakePods(2), Replicated(2));
  const std::string path = MakeSketchFile("wire_status", 38);
  ASSERT_TRUE(router.AddSketch("s", path));
  TestServer server(router);
  SketchClient client(server.Connect());

  const auto refreshed = client.Refresh("ghost");
  EXPECT_FALSE(refreshed.has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_EQ(client.last_failure(), FailureKind::kRequest);

  const auto subscribed = client.Subscribe("ghost", 0, 50);
  EXPECT_FALSE(subscribed.has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_EQ(client.last_failure(), FailureKind::kRequest);

  // Both refusals were request-level: the connection still serves.
  const auto state = client.Refresh("s");
  ASSERT_TRUE(state.has_value()) << client.last_error();
  EXPECT_EQ(state->epoch, 0u);  // file-backed: nothing ever published
}

TEST(ClientWireStatusTest, HealthReportsEveryPod) {
  Router router(MakePods(3), Replicated(2));
  const std::string path = MakeSketchFile("wire_health", 39);
  ASSERT_TRUE(router.AddSketch("s", path));
  std::vector<double> sink;
  ASSERT_EQ(router.EstimateMany("s", RandomBatch(4, 3), &sink),
            RouteStatus::kOk);
  TestServer server(router);
  SketchClient client(server.Connect());
  const auto health = client.Health();
  ASSERT_TRUE(health.has_value()) << client.last_error();
  ASSERT_EQ(health->size(), 3u);
  std::uint64_t resident = 0;
  for (const PodHealthInfo& pod : *health) {
    EXPECT_EQ(pod.health, 0u);  // nothing has failed
    EXPECT_EQ(pod.consecutive_failures, 0u);
    resident += pod.resident_bytes;
  }
  EXPECT_GT(resident, 0u);  // the served sketch is resident somewhere
}

}  // namespace
}  // namespace ifsketch::serve
