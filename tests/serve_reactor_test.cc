// The epoll reactor (serve/reactor.h) against the pipelining contract
// in serve/protocol.h:
//
//   - K request frames written back-to-back before any reply is read
//     come back as exactly K replies, in request order, bit-identical
//     (for deterministic opcodes) to the same frames dispatched one at a
//     time through DispatchRequest and framed with EncodeFrame -- every
//     opcode including HEALTH and STATS, and mixed-opcode interleavings
//     with a refused (unknown-sketch) request in the middle. Because
//     the pipeline arrives in one write, a server that over-read one
//     frame would swallow the next request and never answer it.
//   - A heavy first request never lets the cheap requests behind it
//     overtake: replies are strictly ordered even when execution is not.
//   - A slow client delivering the same pipeline one byte per write
//     gets the same replies; a half-close (shutdown of the write side)
//     after the pipeline still yields every reply and then a clean EOF;
//     a mid-frame disconnect closes the connection without taking the
//     server down.
//   - The first malformed frame yields replies for the requests already
//     read, then exactly one kError frame, then EOF.
//   - A client that posts requests but never reads replies is hung up
//     once queued replies cross max_outbound_bytes
//     (serve_backpressure_hangups_total), the per-loop outbound gauge
//     drains back to zero, and the server keeps serving new
//     connections.
//   - max_connections rejects at accept (counted, connection slots
//     freed on close), instead of any exit-after-C behavior.
//   - An idle-churn wave of ~1k concurrent connections (clamped to
//     RLIMIT_NOFILE) is accepted, served, and drained.
//   - A parked SUBSCRIBE holds no thread: on one event loop, parked
//     subscribers leave REFRESH and queries on other connections
//     answering at once; one publish answers them all; a deadline
//     answers with the final state; a request pipelined behind a parked
//     SUBSCRIBE is answered after it; a client that hangs up, and a
//     reactor destroyed, with a SUBSCRIBE parked are cleaned up at once.
// The whole file runs under the CI TSan and ASan jobs.

#include "serve/reactor.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
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

/// Spins until `done` holds or ~5 s pass -- for the cross-thread edges
/// (connection teardown, gauge drain) the reactor completes
/// asynchronously.
bool PollUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// A router over one pod with a PRIVATE metrics registry (counters start
/// at zero), serving a file-backed sketch "s" and a stream name "live"
/// with one published snapshot -- every request opcode has a target.
struct Rig {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<Router> router;
  std::shared_ptr<Engine> direct;
};

Rig MakeRig(const std::string& stem, std::uint64_t seed) {
  Rig rig;
  rig.registry = std::make_unique<obs::MetricsRegistry>();
  util::Rng rng(seed);
  const core::Database db =
      data::PowerLawBaskets(600, 12, 1.0, 0.5, 4, 3, 0.2, rng);
  auto built = Engine::Build(db, "SUBSAMPLE", EstimatorParams(), rng);
  EXPECT_TRUE(built.has_value());
  const std::string path = testing::TempDir() + "/" + stem + ".ifsk";
  EXPECT_TRUE(built->Save(path));
  RouterOptions options;
  options.registry = rig.registry.get();
  rig.router = std::make_shared<Router>(
      std::vector<std::shared_ptr<SketchPod>>{std::make_shared<SketchPod>()},
      options);
  EXPECT_TRUE(rig.router->AddSketch("s", path));
  EXPECT_TRUE(rig.router->AddStream("live"));
  rig.direct = std::make_shared<Engine>(*std::move(built));
  rig.router->Publish("live", rig.direct, 600);
  return rig;
}

std::vector<std::vector<std::uint32_t>> SomeQueries(const Engine& engine,
                                                    std::size_t count,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> queries;
  const std::size_t d = engine.d();
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(d);
    while (t.size() < 2) {
      t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    }
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    queries.push_back(std::move(attrs));
  }
  return queries;
}

/// One request frame plus how its reply is checked: HEALTH and STATS
/// replies carry racy live values (inflight counts, wall-clock
/// histograms), so they compare structurally; everything else must match
/// the serial reference byte for byte.
struct Step {
  std::string frame;        ///< complete encoded request frame
  Opcode reply = Opcode::kError;  ///< expected reply opcode
  bool byte_exact = true;
};

std::string FrameOf(Opcode opcode, const std::string& body) {
  std::string out;
  EXPECT_TRUE(EncodeFrame(opcode, 0, body, &out));
  return out;
}

Step EstimateStep(const std::string& sketch,
                  const std::vector<std::vector<std::uint32_t>>& queries,
                  Opcode reply = Opcode::kEstimateReply) {
  std::string body;
  EXPECT_TRUE(EncodeQueryRequest({sketch, queries}, &body));
  return Step{FrameOf(Opcode::kEstimate, body), reply};
}

/// Every-opcode pipeline: queries, info, stream refresh/subscribe,
/// health, stats, and a refused unknown-sketch request in the middle.
std::vector<Step> FullPipeline(const Engine& engine) {
  std::vector<Step> steps;
  const auto queries = SomeQueries(engine, 40, 77);
  steps.push_back(EstimateStep("s", queries));
  {
    std::string body;
    EXPECT_TRUE(EncodeQueryRequest({"s", queries}, &body));
    steps.push_back(
        Step{FrameOf(Opcode::kAreFrequent, body), Opcode::kAreFrequentReply});
  }
  {
    std::string body;
    EXPECT_TRUE(EncodeInfoRequest("s", &body));
    steps.push_back(Step{FrameOf(Opcode::kInfo, body), Opcode::kInfoReply});
  }
  // Refused mid-pipeline: well-framed but unknown sketch. The server
  // answers kError and keeps going -- a refusal is not a framing loss.
  steps.push_back(
      EstimateStep("no_such_sketch", queries, Opcode::kError));
  {
    std::string body;
    EXPECT_TRUE(EncodeRefreshRequest("live", &body));
    steps.push_back(
        Step{FrameOf(Opcode::kRefresh, body), Opcode::kRefreshReply});
  }
  {
    // Epoch 1 already published: min_epoch 0 is satisfied immediately.
    std::string body;
    EXPECT_TRUE(EncodeSubscribeRequest({"live", 0, 1000}, &body));
    steps.push_back(
        Step{FrameOf(Opcode::kSubscribe, body), Opcode::kSubscribeReply});
  }
  steps.push_back(
      Step{FrameOf(Opcode::kHealth, ""), Opcode::kHealthReply, false});
  steps.push_back(
      Step{FrameOf(Opcode::kStats, ""), Opcode::kStatsReply, false});
  steps.push_back(EstimateStep("s", SomeQueries(engine, 7, 78)));
  return steps;
}

/// Serial reference: the same frames dispatched one at a time, each
/// reply framed exactly as the reactor frames it on the wire.
std::vector<Frame> SerialReplies(Router& router,
                                 const std::vector<Step>& steps) {
  std::vector<Frame> replies;
  for (const Step& step : steps) {
    const auto request =
        DecodeFrameHeader(step.frame.data(), kFrameHeaderBytes);
    EXPECT_TRUE(request.has_value());
    const ReplyFrame reply =
        DispatchRequest(router, request.value().opcode,
                        std::string_view(step.frame).substr(kFrameHeaderBytes));
    std::string wire;
    EXPECT_TRUE(EncodeFrame(reply.opcode, reply.status, reply.body, &wire));
    Frame frame;
    frame.header = DecodeFrameHeader(wire.data(), kFrameHeaderBytes).value();
    frame.body = wire.substr(kFrameHeaderBytes);
    replies.push_back(std::move(frame));
  }
  return replies;
}

/// Reads one reply per step off `transport` and checks each against the
/// serial reference.
void ExpectReplies(Transport& transport, const std::vector<Step>& steps,
                   const std::vector<Frame>& reference) {
  ASSERT_EQ(steps.size(), reference.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    Frame reply;
    ASSERT_EQ(ReadFrame(transport, &reply), ReadResult::kFrame)
        << "reply " << i;
    EXPECT_EQ(reply.header.opcode, steps[i].reply) << "reply " << i;
    EXPECT_EQ(reply.header.opcode, reference[i].header.opcode)
        << "reply " << i;
    EXPECT_EQ(reply.header.status, reference[i].header.status)
        << "reply " << i;
    if (steps[i].byte_exact) {
      EXPECT_EQ(reply.body, reference[i].body) << "reply " << i;
    } else if (steps[i].reply == Opcode::kHealthReply) {
      // Live load values race; the pod roster and health states do not.
      const auto got = DecodeHealthReply(reply.body);
      const auto want = DecodeHealthReply(reference[i].body);
      ASSERT_TRUE(got.has_value());
      ASSERT_TRUE(want.has_value());
      ASSERT_EQ(got->size(), want->size());
      for (std::size_t p = 0; p < got->size(); ++p) {
        EXPECT_EQ((*got)[p].health, (*want)[p].health);
      }
    } else if (steps[i].reply == Opcode::kStatsReply) {
      // Wall-clock histograms can never be byte-stable; the snapshot
      // must decode and carry the serving counters.
      const auto got = DecodeStatsReply(reply.body);
      ASSERT_TRUE(got.has_value());
      bool saw_requests = false;
      for (const StatsCounter& c : got->counters) {
        if (c.name.rfind("serve_requests_total", 0) == 0) {
          saw_requests = true;
        }
      }
      EXPECT_TRUE(saw_requests);
    }
  }
}

TEST(ServeReactorTest, PipelinedRepliesAreOrderedAndMatchSerialDispatch) {
  Rig rig = MakeRig("reactor_pipe", 11);
  const std::vector<Step> steps = FullPipeline(*rig.direct);
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorOptions options;
  options.loop_threads = 2;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  // The whole pipeline in one write, before reading anything.
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  ExpectReplies(*transport, steps, reference);
}

TEST(ServeReactorTest, HeavyFirstRequestNeverReordersReplies) {
  Rig rig = MakeRig("reactor_heavy", 12);
  std::vector<Step> steps;
  // A 20k-query batch followed by 16 trivial info requests, all in one
  // write: the heavy reply is the longest and comes first on the wire,
  // the cheap ones behind it in order.
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 20000, 90)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  for (int i = 0; i < 16; ++i) {
    steps.push_back(
        Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  }
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  ExpectReplies(*transport, steps, reference);
}

TEST(ServeReactorTest, ByteAtATimeClientGetsIdenticalReplies) {
  Rig rig = MakeRig("reactor_slow", 13);
  std::vector<Step> steps;
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 5, 91)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  steps.push_back(
      Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  steps.push_back(
      Step{FrameOf(Opcode::kHealth, ""), Opcode::kHealthReply, false});
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  // One byte per write: the incremental decoder sees every possible
  // partial-header and partial-body state.
  for (char byte : wire) {
    ASSERT_TRUE(transport->WriteAll(&byte, 1));
  }
  ExpectReplies(*transport, steps, reference);
}

TEST(ServeReactorTest, HalfCloseStillDeliversEveryReplyThenEof) {
  Rig rig = MakeRig("reactor_halfclose", 14);
  const std::vector<Step> steps = FullPipeline(*rig.direct);
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));
  // Half-close before reading anything: the server must answer every
  // request already on the wire, then close its side.
  transport->CloseWrite();
  ExpectReplies(*transport, steps, reference);
  Frame extra;
  EXPECT_EQ(ReadFrame(*transport, &extra), ReadResult::kEof);
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));
}

TEST(ServeReactorTest, MidFrameDisconnectLeavesServerServing) {
  Rig rig = MakeRig("reactor_midframe", 15);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    // A valid header promising 100 body bytes, then only 10, then a
    // hard disconnect.
    char header[kFrameHeaderBytes];
    ASSERT_TRUE(EncodeFrameHeader(Opcode::kInfo, 0, 100, header));
    ASSERT_TRUE(transport->WriteAll(header, sizeof(header)));
    ASSERT_TRUE(transport->WriteAll("0123456789", 10));
  }  // transport destructor closes the socket mid-frame
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // And a partial HEADER disconnect for the other decoder state.
  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    ASSERT_TRUE(transport->WriteAll("IFSP", 4));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // The server is still fully serviceable.
  SketchClient client(TcpConnect(reactor.port()));
  const auto info = client.Info("s");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->d, rig.direct->d());
}

TEST(ServeReactorTest, MalformedMidPipelineAnswersPrefixThenOneError) {
  Rig rig = MakeRig("reactor_malformed", 16);
  std::vector<Step> steps;
  steps.push_back(EstimateStep("s", SomeQueries(*rig.direct, 5, 92)));
  std::string info_body;
  ASSERT_TRUE(EncodeInfoRequest("s", &info_body));
  steps.push_back(
      Step{FrameOf(Opcode::kInfo, info_body), Opcode::kInfoReply});
  const std::vector<Frame> reference = SerialReplies(*rig.router, steps);

  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));
  auto transport = TcpConnect(reactor.port());
  ASSERT_NE(transport, nullptr);
  std::string wire;
  for (const Step& step : steps) wire += step.frame;
  wire += "GARBAGE-NOT-A-FRAME";  // framing lost from here on
  ASSERT_TRUE(transport->WriteAll(wire.data(), wire.size()));

  // The two valid requests are answered normally...
  ExpectReplies(*transport, steps, reference);
  // ...then exactly one kError frame, then EOF.
  Frame error;
  ASSERT_EQ(ReadFrame(*transport, &error), ReadResult::kFrame);
  EXPECT_EQ(error.header.opcode, Opcode::kError);
  EXPECT_EQ(error.header.status,
            static_cast<std::uint8_t>(Status::kBadRequest));
  Frame extra;
  EXPECT_EQ(ReadFrame(*transport, &extra), ReadResult::kEof);
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));
}

TEST(ServeReactorTest, NonReadingClientIsHungUpAtTheOutboundCap) {
  Rig rig = MakeRig("reactor_backpressure", 17);
  ReactorOptions options;
  options.loop_threads = 1;
  options.pause_outbound_bytes = 64u << 10;
  options.max_outbound_bytes = 256u << 10;  // the bound under test
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  obs::Counter* hangups =
      rig.registry->GetCounter("serve_backpressure_hangups_total");
  obs::Gauge* outbound = rig.registry->GetGauge(
      obs::LabeledName("serve_loop_outbound_bytes", "loop", "0"));

  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    // One request whose reply (240k answers x 8 bytes ~ 1.9 MB) blows
    // straight past max_outbound_bytes while the client reads nothing.
    std::vector<std::vector<std::uint32_t>> queries(
        240000, std::vector<std::uint32_t>{0, 1});
    std::string body;
    ASSERT_TRUE(EncodeQueryRequest({"s", queries}, &body));
    std::string frame;
    ASSERT_TRUE(EncodeFrame(Opcode::kEstimate, 0, body, &frame));
    ASSERT_TRUE(transport->WriteAll(frame.data(), frame.size()));
    // Never read: the server must hang up on its own.
    EXPECT_TRUE(PollUntil([&] { return hangups->Value() >= 1; }));
  }
  // Queued-reply accounting drains with the connection: bounded server
  // memory, not a leaked balance.
  EXPECT_TRUE(PollUntil([&] { return outbound->Value() == 0; }));
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // The loop thread survived; a well-behaved client is unaffected.
  SketchClient client(TcpConnect(reactor.port()));
  const auto queries = SomeQueries(*rig.direct, 3, 93);
  const auto answers = client.EstimateMany("s", queries);
  ASSERT_TRUE(answers.has_value()) << client.last_error();
}

TEST(ServeReactorTest, MaxConnectionsRejectsAtAcceptAndFreesOnClose) {
  Rig rig = MakeRig("reactor_maxconns", 18);
  ReactorOptions options;
  options.loop_threads = 1;
  options.max_connections = 2;
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  // Two connections fill the cap; prove both are live with a round trip.
  auto first = std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  auto second = std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  ASSERT_TRUE(first->Info("s").has_value());
  ASSERT_TRUE(second->Info("s").has_value());

  // The third is accepted and immediately closed: its request is never
  // answered, and the rejection is counted.
  {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr);
    std::string body;
    ASSERT_TRUE(EncodeInfoRequest("s", &body));
    WriteFrame(*transport, Opcode::kInfo, 0, body);  // may race the close
    Frame reply;
    EXPECT_NE(ReadFrame(*transport, &reply), ReadResult::kFrame);
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.rejected_total() >= 1; }));
  EXPECT_GE(
      rig.registry->GetCounter("serve_conns_rejected_total")->Value(), 1u);
  // Rejection never exits the server or disturbs standing connections.
  ASSERT_TRUE(first->Info("s").has_value());

  // Closing one connection frees its slot for a new client.
  first.reset();
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 1; }));
  SketchClient third(TcpConnect(reactor.port()));
  ASSERT_TRUE(third.Info("s").has_value()) << third.last_error();
}

TEST(ServeReactorTest, PipelinedClientMatchesSingleFrameBatch) {
  Rig rig = MakeRig("reactor_client_pipe", 19);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  const auto queries = SomeQueries(*rig.direct, 257, 94);
  SketchClient single(TcpConnect(reactor.port()));
  const auto one_frame = single.EstimateMany("s", queries);
  ASSERT_TRUE(one_frame.has_value()) << single.last_error();

  SketchClient piped(TcpConnect(reactor.port()));
  const auto many_frames = piped.EstimateManyPipelined("s", queries, 8);
  ASSERT_TRUE(many_frames.has_value()) << piped.last_error();
  EXPECT_EQ(*many_frames, *one_frame);

  // A refused chunk fails the call but leaves the connection usable.
  const auto refused =
      piped.EstimateManyPipelined("no_such_sketch", queries, 4);
  EXPECT_FALSE(refused.has_value());
  EXPECT_EQ(piped.last_failure(), FailureKind::kRequest);
  const auto after = piped.EstimateManyPipelined("s", queries, 8);
  ASSERT_TRUE(after.has_value()) << piped.last_error();
  EXPECT_EQ(*after, *one_frame);
}

TEST(ServeReactorTest, IdleChurnAcceptsAndDrainsAThousandConnections) {
  // Each loopback connection costs two fds in this process; clamp the
  // wave to what RLIMIT_NOFILE leaves room for.
  std::size_t target = 1000;
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
    const std::size_t budget =
        rl.rlim_cur > 128 ? (static_cast<std::size_t>(rl.rlim_cur) - 128) / 2
                          : 8;
    target = std::min(target, budget);
  }
  ASSERT_GE(target, 64u) << "fd limit too low to exercise connection scale";

  Rig rig = MakeRig("reactor_churn", 20);
  ReactorOptions options;
  options.loop_threads = 2;  // exercise round-robin assignment
  ReactorServer reactor(*rig.router, options);
  ASSERT_TRUE(reactor.Listen(0));

  std::vector<std::unique_ptr<SketchClient>> wave;
  wave.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    auto transport = TcpConnect(reactor.port());
    ASSERT_NE(transport, nullptr) << "connection " << i;
    wave.push_back(std::make_unique<SketchClient>(std::move(transport)));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == target; }));
  EXPECT_EQ(reactor.accepted_total(), target);

  // A sample of the held connections proves they are all being served,
  // not just counted.
  for (std::size_t i = 0; i < target; i += 97) {
    ASSERT_TRUE(wave[i]->Info("s").has_value()) << "connection " << i;
  }
  ASSERT_TRUE(wave.back()->Info("s").has_value());

  wave.clear();  // the whole wave hangs up at once
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // Both loops carried connections (round-robin, two loops, >= 64
  // connections).
  const std::uint64_t wakeups0 =
      rig.registry
          ->GetCounter(
              obs::LabeledName("serve_loop_wakeups_total", "loop", "0"))
          ->Value();
  const std::uint64_t wakeups1 =
      rig.registry
          ->GetCounter(
              obs::LabeledName("serve_loop_wakeups_total", "loop", "1"))
          ->Value();
  EXPECT_GT(wakeups0, 0u);
  EXPECT_GT(wakeups1, 0u);
}

TEST(ServeReactorTest, StopAcceptingDrainsAndWaitDrainedReturns) {
  Rig rig = MakeRig("reactor_drain", 21);
  ReactorServer reactor(*rig.router);
  ASSERT_TRUE(reactor.Listen(0));

  auto client =
      std::make_unique<SketchClient>(TcpConnect(reactor.port()));
  ASSERT_TRUE(client->Info("s").has_value());

  reactor.StopAccepting();
  // Standing connections keep working after the listener stops.
  ASSERT_TRUE(client->Info("s").has_value());

  std::thread closer([&client] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    client.reset();
  });
  reactor.WaitDrained();  // returns only once the connection is gone
  closer.join();
  EXPECT_EQ(reactor.open_connections(), 0u);
}

// ------------------------------------------------- parked SUBSCRIBEs

ReactorOptions OneLoop() {
  ReactorOptions options;
  options.loop_threads = 1;
  return options;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A connection that has written one SUBSCRIBE past epoch 0 and reads
/// with a 5 s timeout, so a reply that never comes fails the test
/// instead of hanging it.
std::unique_ptr<Transport> Subscriber(std::unique_ptr<Transport> transport,
                                      const std::string& sketch,
                                      std::uint32_t timeout_ms) {
  EXPECT_NE(transport, nullptr);
  if (transport == nullptr) return nullptr;
  std::string body;
  EXPECT_TRUE(EncodeSubscribeRequest({sketch, 0, timeout_ms}, &body));
  EXPECT_TRUE(WriteFrame(*transport, Opcode::kSubscribe, 0, body));
  EXPECT_TRUE(transport->SetReadTimeout(std::chrono::seconds(5)));
  return transport;
}

/// The next reply on `transport`, which must be a SUBSCRIBE reply.
std::optional<SnapshotInfo> ReadSubscribeReply(Transport& transport) {
  Frame reply;
  if (ReadFrame(transport, &reply) != ReadResult::kFrame ||
      reply.header.opcode != Opcode::kSubscribeReply) {
    return std::nullopt;
  }
  return DecodeSnapshotReply(reply.body);
}

/// Waits until the server has dispatched `count` SUBSCRIBEs (each is
/// counted before it parks).
bool SubscribesDispatched(const Rig& rig, std::uint64_t count) {
  obs::Counter* subscribes = rig.registry->GetCounter(
      obs::LabeledName("serve_requests_total", "op", "subscribe"));
  return PollUntil([&] { return subscribes->Value() >= count; });
}

/// A loopback connection whose close resets it (SO_LINGER 0): the
/// server sees ECONNRESET, not the FIN of a half-close.
std::unique_ptr<Transport> ResettingConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  auto transport = std::make_unique<FdTransport>(fd);
  const linger reset{1, 0};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)) != 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return nullptr;
  }
  return transport;
}

TEST(ServeReactorTest, ParkedSubscribesNeverBlockTheLoop) {
  Rig rig = MakeRig("reactor_parked", 22);
  ASSERT_TRUE(rig.router->AddStream("quiet"));
  ReactorServer reactor(*rig.router, OneLoop());
  ASSERT_TRUE(reactor.Listen(0));

  // More parked SUBSCRIBEs than the reactor ever had dispatch workers,
  // all on the one loop.
  std::vector<std::unique_ptr<Transport>> subscribers;
  for (int i = 0; i < 6; ++i) {
    subscribers.push_back(
        Subscriber(TcpConnect(reactor.port()), "quiet", 60000));
    ASSERT_NE(subscribers.back(), nullptr);
  }
  ASSERT_TRUE(SubscribesDispatched(rig, 6));

  SketchClient client(TcpConnect(reactor.port()));
  auto start = std::chrono::steady_clock::now();
  const auto refreshed = client.Refresh("quiet");
  EXPECT_LT(MsSince(start), 50.0);
  ASSERT_TRUE(refreshed.has_value()) << client.last_error();
  EXPECT_EQ(refreshed->epoch, 0u);
  start = std::chrono::steady_clock::now();
  const auto answers =
      client.EstimateMany("s", SomeQueries(*rig.direct, 1, 95));
  EXPECT_LT(MsSince(start), 50.0);
  ASSERT_TRUE(answers.has_value()) << client.last_error();

  // One publish answers all six.
  rig.router->Publish("quiet", rig.direct, 600);
  for (auto& subscriber : subscribers) {
    const auto info = ReadSubscribeReply(*subscriber);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->epoch, 1u);
    EXPECT_EQ(info->rows_seen, 600u);
  }
}

TEST(ServeReactorTest, ParkedSubscribeTimesOutWithTheFinalState) {
  Rig rig = MakeRig("reactor_parked_timeout", 23);
  ASSERT_TRUE(rig.router->AddStream("quiet"));
  ReactorServer reactor(*rig.router, OneLoop());
  ASSERT_TRUE(reactor.Listen(0));

  // A 60 s SUBSCRIBE parked first on the same loop: the 50 ms one's
  // deadline must still wake the loop on time.
  auto patient = Subscriber(TcpConnect(reactor.port()), "quiet", 60000);
  ASSERT_NE(patient, nullptr);
  ASSERT_TRUE(SubscribesDispatched(rig, 1));

  SketchClient client(TcpConnect(reactor.port()));
  const auto start = std::chrono::steady_clock::now();
  const auto info = client.Subscribe("quiet", 0, 50);
  const double elapsed = MsSince(start);
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 0u);  // timed out: the state it found
  EXPECT_EQ(info->rows_seen, 0u);
  EXPECT_GE(elapsed, 50.0);
  EXPECT_LT(elapsed, 1000.0);

  rig.router->Publish("quiet", rig.direct, 600);
  const auto woken = ReadSubscribeReply(*patient);
  ASSERT_TRUE(woken.has_value());
  EXPECT_EQ(woken->epoch, 1u);
}

TEST(ServeReactorTest, RequestPipelinedBehindAParkedSubscribeWaitsItsTurn) {
  Rig rig = MakeRig("reactor_parked_pipe", 24);
  ASSERT_TRUE(rig.router->AddStream("quiet"));
  const std::vector<Step> query = {
      EstimateStep("s", SomeQueries(*rig.direct, 9, 96))};
  const std::vector<Frame> reference = SerialReplies(*rig.router, query);
  ReactorServer reactor(*rig.router, OneLoop());
  ASSERT_TRUE(reactor.Listen(0));

  auto transport = Subscriber(TcpConnect(reactor.port()), "quiet", 60000);
  ASSERT_NE(transport, nullptr);
  ASSERT_TRUE(transport->WriteAll(query[0].frame.data(),
                                  query[0].frame.size()));
  // The query has run (it is counted before its engine call); its reply
  // waits behind the parked SUBSCRIBE's slot.
  obs::Counter* estimates = rig.registry->GetCounter(
      obs::LabeledName("serve_requests_total", "op", "estimate"));
  ASSERT_TRUE(PollUntil([&] { return estimates->Value() >= 1; }));

  rig.router->Publish("quiet", rig.direct, 600);
  const auto info = ReadSubscribeReply(*transport);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->epoch, 1u);
  ExpectReplies(*transport, query, reference);
}

TEST(ServeReactorTest, ClientHangingUpWithAParkedSubscribeIsCleanedUp) {
  Rig rig = MakeRig("reactor_parked_hangup", 25);
  ASSERT_TRUE(rig.router->AddStream("quiet"));
  ReactorServer reactor(*rig.router, OneLoop());
  ASSERT_TRUE(reactor.Listen(0));

  // A reset drops the parked SUBSCRIBE with its connection at once.
  {
    auto transport = Subscriber(ResettingConnect(reactor.port()), "quiet",
                                kMaxSubscribeTimeoutMs);
    ASSERT_NE(transport, nullptr);
    ASSERT_TRUE(SubscribesDispatched(rig, 1));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // A FIN is a half-close: the parked SUBSCRIBE is still owed its reply,
  // which the deadline sends before the server closes its side.
  {
    auto transport = Subscriber(TcpConnect(reactor.port()), "quiet", 100);
    ASSERT_NE(transport, nullptr);
    ASSERT_TRUE(SubscribesDispatched(rig, 2));
  }
  EXPECT_TRUE(PollUntil([&] { return reactor.open_connections() == 0; }));

  // Publishing afterwards touches neither connection; the loop serves on.
  rig.router->Publish("quiet", rig.direct, 600);
  SketchClient client(TcpConnect(reactor.port()));
  const auto info = client.Refresh("quiet");
  ASSERT_TRUE(info.has_value()) << client.last_error();
  EXPECT_EQ(info->epoch, 1u);
}

TEST(ServeReactorTest, DestroyingTheReactorWithAParkedSubscribeIsPrompt) {
  Rig rig = MakeRig("reactor_parked_shutdown", 26);
  ASSERT_TRUE(rig.router->AddStream("quiet"));
  auto reactor = std::make_unique<ReactorServer>(*rig.router, OneLoop());
  ASSERT_TRUE(reactor->Listen(0));
  auto transport = Subscriber(TcpConnect(reactor->port()), "quiet",
                              kMaxSubscribeTimeoutMs);
  ASSERT_NE(transport, nullptr);
  ASSERT_TRUE(SubscribesDispatched(rig, 1));

  const auto start = std::chrono::steady_clock::now();
  reactor.reset();
  EXPECT_LT(MsSince(start), 1000.0);
  // The subscriber sees its connection close, not a reply.
  Frame reply;
  EXPECT_NE(ReadFrame(*transport, &reply), ReadResult::kFrame);
  // The pods no longer call into the destroyed reactor.
  rig.router->Publish("quiet", rig.direct, 600);
}

}  // namespace
}  // namespace ifsketch::serve
