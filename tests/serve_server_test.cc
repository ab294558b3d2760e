// The full serving stack over loopback TCP: for EVERY registered
// algorithm, answers served through
// protocol -> ReactorServer -> DispatchRequest -> Router -> SketchPod ->
// Engine are bit-identical to direct Engine queries on the same file;
// malformed frames (truncated header, oversized declared length, unknown
// opcode, version mismatch) are rejected without crashing the server.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "serve/client.h"
#include "serve_test_server.h"
#include "util/random.h"

namespace ifsketch::serve {
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

/// Router serving one sketch name from one saved file, plus the direct
/// engine for reference answers.
struct Rig {
  std::shared_ptr<Router> router;
  Engine direct;
};

Rig MakeRig(const std::string& algorithm, const std::string& stem,
            std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::PowerLawBaskets(600, 12, 1.0, 0.5, 4, 3,
                                                  0.2, rng);
  auto built = Engine::Build(db, algorithm, EstimatorParams(), rng);
  EXPECT_TRUE(built.has_value()) << algorithm;
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(built->Save(path));
  auto router = std::make_shared<Router>(
      std::vector<std::shared_ptr<SketchPod>>{
          std::make_shared<SketchPod>()});
  EXPECT_TRUE(router->AddSketch("s", path));
  return Rig{std::move(router), *std::move(built)};
}

/// Queries of every size the sketch supports (RELEASE-ANSWERS answers
/// only |T| = k; sample-backed algorithms answer all sizes).
std::vector<std::vector<std::uint32_t>> SupportedQueries(
    const Engine& engine, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> queries;
  const std::size_t d = engine.d();
  for (std::size_t size = 1; size <= 4; ++size) {
    if (!engine.supports_query_size(size)) continue;
    for (int i = 0; i < 25; ++i) {
      core::Itemset t(d);
      while (t.size() < size) {
        t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
      }
      std::vector<std::uint32_t> attrs;
      for (std::size_t a : t.Attributes()) {
        attrs.push_back(static_cast<std::uint32_t>(a));
      }
      queries.push_back(std::move(attrs));
    }
  }
  return queries;
}

std::vector<core::Itemset> AsItemsets(
    const std::vector<std::vector<std::uint32_t>>& queries, std::size_t d) {
  std::vector<core::Itemset> ts;
  for (const auto& attrs : queries) {
    core::Itemset t(d);
    for (std::uint32_t a : attrs) t.Add(a);
    ts.push_back(std::move(t));
  }
  return ts;
}

// ---------------------------------------- registry-driven equivalence

class ServedEquivalenceTest : public testing::TestWithParam<std::string> {};

TEST_P(ServedEquivalenceTest, ServedAnswersAreBitIdenticalToDirect) {
  std::string stem = "srv_eq_" + GetParam();
  for (char& c : stem) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  Rig rig = MakeRig(GetParam(), stem, 31);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());

  const auto queries = SupportedQueries(rig.direct, 32);
  ASSERT_FALSE(queries.empty());
  const auto ts = AsItemsets(queries, rig.direct.d());

  const auto info = client.Info("s");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->algorithm, rig.direct.algorithm());
  EXPECT_EQ(info->d, rig.direct.d());
  EXPECT_EQ(info->summary_bits, rig.direct.summary_bits());

  const auto served = client.EstimateMany("s", queries);
  ASSERT_TRUE(served.has_value()) << client.last_error();
  std::vector<double> direct;
  rig.direct.estimate_many(ts, &direct);
  // Bit-identical: doubles crossed the wire as raw 8-byte values and the
  // serving layer added no arithmetic.
  ASSERT_EQ(*served, direct) << GetParam();

  const auto served_bits = client.AreFrequent("s", queries);
  ASSERT_TRUE(served_bits.has_value()) << client.last_error();
  std::vector<bool> direct_bits;
  rig.direct.are_frequent(ts, &direct_bits);
  ASSERT_EQ(*served_bits, direct_bits) << GetParam();
}

/// Every registered name, with combinator listings ("MEDIAN-BOOST(...)")
/// instantiated over SUBSAMPLE -- new algorithms added to the registry
/// are picked up (and served) automatically.
std::vector<std::string> RegisteredAlgorithms() {
  std::vector<std::string> names;
  for (std::string name : Engine::KnownAlgorithms()) {
    const std::size_t paren = name.find("(...)");
    if (paren != std::string::npos) {
      name = name.substr(0, paren) + "(SUBSAMPLE)";
    }
    names.push_back(std::move(name));
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredAlgorithms, ServedEquivalenceTest,
                         testing::ValuesIn(RegisteredAlgorithms()),
                         [](const auto& info) {
                           std::string safe = info.param;
                           for (char& c : safe) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return safe;
                         });

// ------------------------------------------------ protocol error paths

TEST(ServeServerTest, UnknownSketchGetsErrorNotCrash) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_unknown", 33);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  EXPECT_FALSE(client.Info("nope").has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_FALSE(client.EstimateMany("nope", {{0}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  // The connection survives request-level errors.
  EXPECT_TRUE(client.Info("s").has_value());
}

TEST(ServeServerTest, OutOfRangeAttributeGetsUnsupportedQuery) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_range", 34);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  EXPECT_FALSE(client.EstimateMany("s", {{0, 99}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_TRUE(client.Info("s").has_value());
}

TEST(ServeServerTest, UnsupportedQuerySizeGetsUnsupportedQuery) {
  // RELEASE-ANSWERS answers only |T| = k (= 3 here).
  Rig rig = MakeRig("RELEASE-ANSWERS", "srv_size", 35);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  EXPECT_FALSE(client.EstimateMany("s", {{0, 1}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_TRUE(client.EstimateMany("s", {{0, 1, 2}}).has_value())
      << client.last_error();
}

// ------------------------------------------------ wire set semantics

// A query on the wire names the attribute SET of its ids, exactly what
// an Itemset built from them holds: order and repeats change nothing.
TEST(ServeServerTest, QueriesAnswerAsTheirAttributeSets) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sets", 42);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  const core::Itemset t(rig.direct.d(), {3, 5});
  std::vector<double> direct;
  rig.direct.estimate_many({t, t}, &direct);
  std::vector<bool> direct_bits;
  rig.direct.are_frequent({t, t}, &direct_bits);

  const auto served = client.EstimateMany("s", {{5, 3, 5}, {5, 3}});
  ASSERT_TRUE(served.has_value()) << client.last_error();
  ASSERT_EQ(served->size(), 2u);
  EXPECT_EQ(std::memcmp(served->data(), direct.data(), 2 * sizeof(double)),
            0);
  const auto served_bits = client.AreFrequent("s", {{5, 3, 5}, {5, 3}});
  ASSERT_TRUE(served_bits.has_value()) << client.last_error();
  EXPECT_EQ(*served_bits, direct_bits);
}

// Query sizes are set sizes too: a sketch that answers only k-itemsets
// takes {2,0,1,1} as {0,1,2} and refuses {1,1,1} = {1} -- it must not
// count the repeated ids and abort on a mis-sized itemset.
TEST(ServeServerTest, QuerySizeIsTheSetSize) {
  Rig rig = MakeRig("RELEASE-ANSWERS", "srv_set_size", 43);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  std::vector<double> direct;
  rig.direct.estimate_many({core::Itemset(rig.direct.d(), {0, 1, 2})},
                           &direct);
  std::vector<bool> direct_bits;
  rig.direct.are_frequent({core::Itemset(rig.direct.d(), {0, 1, 2})},
                          &direct_bits);
  const auto served = client.EstimateMany("s", {{2, 0, 1, 1}});
  ASSERT_TRUE(served.has_value()) << client.last_error();
  ASSERT_EQ(served->size(), 1u);
  EXPECT_EQ(std::memcmp(served->data(), direct.data(), sizeof(double)), 0);
  const auto served_bits = client.AreFrequent("s", {{2, 0, 1, 1}});
  ASSERT_TRUE(served_bits.has_value()) << client.last_error();
  EXPECT_EQ(*served_bits, direct_bits);

  EXPECT_FALSE(client.EstimateMany("s", {{1, 1, 1}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_FALSE(client.AreFrequent("s", {{1, 1, 1}}).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnsupportedQuery);
  EXPECT_TRUE(client.Info("s").has_value());  // the server lives on
}

// ------------------------------------------------- malformed framing

/// Reads one reply frame directly off the transport (bypassing
/// SketchClient) so malformed-input tests can watch raw server behavior.
ReadResult ReadReply(Transport& transport, Frame* frame) {
  return ReadFrame(transport, frame);
}

TEST(ServeServerTest, TruncatedHeaderClosesConnectionCleanly) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_trunc", 36);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  // 5 bytes of a 12-byte header, then hang up.
  ASSERT_TRUE(wire->WriteAll("IFSP\x01", 5));
  wire->CloseWrite();
  Frame reply;
  // The server saw EOF mid-header: it answers with a kError frame (best
  // effort) and closes -- it must NOT block waiting for the rest.
  const ReadResult result = ReadReply(*wire, &reply);
  if (result == ReadResult::kFrame) {
    EXPECT_EQ(reply.header.opcode, Opcode::kError);
    EXPECT_EQ(reply.header.status,
              static_cast<std::uint8_t>(Status::kBadRequest));
    EXPECT_EQ(ReadReply(*wire, &reply), ReadResult::kEof);
  } else {
    EXPECT_EQ(result, ReadResult::kEof);
  }
}

TEST(ServeServerTest, OversizedDeclaredLengthIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_big", 37);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  // Hand-build a header declaring a body over the cap. The server must
  // reject from the header alone -- were it to allocate/read the claimed
  // 16 MiB+ body of which nothing arrives, it would hang, not answer.
  std::string header;
  header.append(kFrameMagic, 4);
  const std::uint16_t version = kProtocolVersion;
  header.append(reinterpret_cast<const char*>(&version), 2);
  header.push_back(static_cast<char>(Opcode::kInfo));
  header.push_back('\0');
  const std::uint32_t huge = kMaxBodyBytes + 1;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  ASSERT_TRUE(wire->WriteAll(header.data(), header.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_EQ(ReadReply(*wire, &reply), ReadResult::kEof);  // hung up
}

TEST(ServeServerTest, UnknownOpcodeIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_opcode", 38);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  std::string header;
  header.append(kFrameMagic, 4);
  const std::uint16_t version = kProtocolVersion;
  header.append(reinterpret_cast<const char*>(&version), 2);
  header.push_back('\x42');  // not an opcode
  header.push_back('\0');
  const std::uint32_t zero = 0;
  header.append(reinterpret_cast<const char*>(&zero), 4);
  ASSERT_TRUE(wire->WriteAll(header.data(), header.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(ReadReply(*wire, &reply), ReadResult::kEof);
}

TEST(ServeServerTest, VersionMismatchIsRejected) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_version", 39);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  std::string body;
  ASSERT_TRUE(EncodeInfoRequest("s", &body));
  std::string frame;
  ASSERT_TRUE(EncodeFrame(Opcode::kInfo, 0, body, &frame));
  const std::uint16_t wrong = kProtocolVersion + 7;
  std::memcpy(frame.data() + 4, &wrong, sizeof(wrong));
  ASSERT_TRUE(wire->WriteAll(frame.data(), frame.size()));
  Frame reply;
  ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  EXPECT_EQ(ReadReply(*wire, &reply), ReadResult::kEof);
}

TEST(ServeServerTest, UndecodableBodyKeepsConnectionAlive) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_body", 41);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  // Well-formed frame, garbage body: frame sync is intact, so the server
  // answers kError and keeps serving.
  ASSERT_TRUE(WriteFrame(*wire, Opcode::kEstimate, 0, "garbage"));
  Frame reply;
  ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kError);
  EXPECT_EQ(reply.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  std::string body;
  ASSERT_TRUE(EncodeInfoRequest("s", &body));
  ASSERT_TRUE(WriteFrame(*wire, Opcode::kInfo, 0, body));
  ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
  EXPECT_EQ(reply.header.opcode, Opcode::kInfoReply);
}

TEST(ServeServerTest, UndecodableBodyIsBadRequestBeforeNameLookup) {
  // The body is decoded before the name is looked up, so a malformed
  // body gets kBadRequest even when its name is unknown.
  Rig rig = MakeRig("SUBSAMPLE", "srv_body_unknown", 44);
  TestServer server(*rig.router);
  const auto wire = server.Connect();
  ASSERT_NE(wire, nullptr);
  const std::vector<std::vector<std::uint32_t>> queries = {{1, 2}};
  std::string body;
  ASSERT_TRUE(EncodeQueryRequest({"nope", queries}, &body));
  body.push_back('\0');  // trailing byte: undecodable
  for (const Opcode opcode : {Opcode::kEstimate, Opcode::kAreFrequent}) {
    ASSERT_TRUE(WriteFrame(*wire, opcode, 0, body));
    Frame reply;
    ASSERT_EQ(ReadReply(*wire, &reply), ReadResult::kFrame);
    EXPECT_EQ(reply.header.opcode, Opcode::kError);
    EXPECT_EQ(reply.header.status,
              static_cast<std::uint8_t>(Status::kBadRequest));
  }
}

// ------------------------------------------- refresh/subscribe opcodes

/// An in-memory snapshot to publish through the router.
std::shared_ptr<const Engine> MakeSnapshot(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const core::Database db = data::UniformRandom(n, 12, 0.3, rng);
  auto engine = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  EXPECT_TRUE(engine.has_value());
  return std::make_shared<const Engine>(std::move(*engine));
}

TEST(ServeServerTest, RefreshReportsPublishedEpochs) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_refresh", 50);
  ASSERT_TRUE(rig.router->AddStream("live"));
  TestServer server(*rig.router);
  SketchClient client(server.Connect());

  // Registered, nothing published: epoch 0.
  auto info = client.Refresh("live");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_EQ(info->rows_seen, 0u);

  rig.router->Publish("live", MakeSnapshot(300, 51), 300);
  info = client.Refresh("live");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->rows_seen, 300u);

  // Unknown names error without killing the connection.
  EXPECT_FALSE(client.Refresh("nope").has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_TRUE(client.Refresh("live").has_value());
}

TEST(ServeServerTest, SubscribeReturnsImmediatelyWhenSatisfied) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_now", 52);
  rig.router->Publish("live", MakeSnapshot(200, 53), 200);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  // epoch 1 > min_epoch 0 already: no waiting, even with a long timeout.
  const auto info = client.Subscribe("live", 0, 60000);
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->rows_seen, 200u);
}

TEST(ServeServerTest, SubscribeTimesOutWithFinalState) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_to", 54);
  rig.router->Publish("live", MakeSnapshot(200, 55), 200);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  // Nothing will publish epoch 2: the reply still arrives, carrying the
  // unchanged state -- the client tells timeout from satisfied by
  // comparing epoch with min_epoch.
  const auto info = client.Subscribe("live", 1, 50);
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_LE(info->epoch, 1u);
}

TEST(ServeServerTest, SubscribeWakesOnPublishFromAnotherThread) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_wake", 56);
  ASSERT_TRUE(rig.router->AddStream("live"));
  TestServer server(*rig.router);
  SketchClient client(server.Connect());

  std::thread publisher([&rig] {
    // Give the subscribe a moment to park on the condition variable.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    rig.router->Publish("live", MakeSnapshot(400, 57), 400);
  });
  const auto info = client.Subscribe("live", 0, 60000);
  publisher.join();
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);  // woken, not timed out
  EXPECT_EQ(info->rows_seen, 400u);

  // And the published snapshot actually serves queries on this same
  // connection.
  const auto served = client.EstimateMany("live", {{1, 3}});
  ASSERT_TRUE(served.has_value()) << client.last_error();
  ASSERT_EQ(served->size(), 1u);
}

TEST(ServeServerTest, SubscribeUnknownNameGetsError) {
  Rig rig = MakeRig("SUBSAMPLE", "srv_sub_unknown", 58);
  TestServer server(*rig.router);
  SketchClient client(server.Connect());
  EXPECT_FALSE(client.Subscribe("nope", 0, 100).has_value());
  EXPECT_EQ(client.last_status(), Status::kUnknownSketch);
  EXPECT_TRUE(client.Info("s").has_value());  // connection survives
}

}  // namespace
}  // namespace ifsketch::serve
