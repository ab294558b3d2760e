// Heap allocations per query request do not grow with the batch. The
// serving path decodes a request body into one flat core::QueryBatch,
// checks it once, hands that same batch to the column kernels and writes
// the answers into the reply with one copy, so a 100000-query request
// allocates exactly as often as a 1000-query one. Counted here for one
// DispatchRequest (estimate and are-frequent) against a mapped SUBSAMPLE
// file and a published STREAM-SUBSAMPLE snapshot, and for one direct
// Engine::estimate_many / are_frequent in the flat and the
// vector<Itemset> adapter forms. And a published snapshot is a ready
// image: its FIRST query allocates the same at every row width, because
// it adopts the column section the publish wrote instead of decoding.
//
// This file replaces the global operator new to count allocations, so it
// builds as its own test executable (serve_alloc_test), never inside
// ifsketch_tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ifsketch::serve {
namespace {

constexpr std::size_t kD = 32;
constexpr std::size_t kSizes[] = {1, 1000, 100000};

/// Allocations one call of `fn` makes, after a warm-up call (lazy views,
/// thread-local caches, pool threads).
std::size_t CountAllocations(const std::function<void()>& fn) {
  fn();
  g_allocations.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_allocations.load();
}

core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// `count` random 3-itemsets over kD attributes, ascending on the wire.
std::vector<std::vector<std::uint32_t>> RandomWire(std::size_t count,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> wire;
  wire.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(kD);
    while (t.size() < 3) t.Add(static_cast<std::size_t>(rng.UniformInt(kD)));
    std::vector<std::uint32_t> attrs;
    for (std::size_t a : t.Attributes()) {
      attrs.push_back(static_cast<std::uint32_t>(a));
    }
    wire.push_back(std::move(attrs));
  }
  return wire;
}

std::vector<core::Itemset> AsItemsets(
    const std::vector<std::vector<std::uint32_t>>& wire) {
  std::vector<core::Itemset> ts;
  ts.reserve(wire.size());
  for (const auto& attrs : wire) {
    core::Itemset t(kD);
    for (std::uint32_t a : attrs) t.Add(a);
    ts.push_back(std::move(t));
  }
  return ts;
}

class ServeAllocTest : public testing::Test {
 protected:
  void SetUp() override {
    // A fixed pool size fixes the chunk count, and with it the per-chunk
    // allocations, for every batch of at least 8 chunks' worth.
    util::ThreadPool::SetDefaultThreadCount(2);
    util::Rng rng(7);
    const core::Database db =
        data::PowerLawBaskets(4000, kD, 1.0, 0.5, 4, 3, 0.2, rng);
    auto subsample = Engine::Build(db, "SUBSAMPLE", Params(), rng);
    ASSERT_TRUE(subsample.has_value());
    const std::string path = testing::TempDir() + "/serve_alloc.ifsk";
    ASSERT_TRUE(subsample->Save(path));
    auto stream = Engine::Build(db, "STREAM-SUBSAMPLE", Params(), rng);
    ASSERT_TRUE(stream.has_value());

    RouterOptions options;
    options.registry = &registry_;
    router_ = std::make_unique<Router>(
        std::vector<std::shared_ptr<SketchPod>>{
            std::make_shared<SketchPod>()},
        options);
    ASSERT_TRUE(router_->AddSketch("subsample", path));
    router_->Publish("stream",
                     std::make_shared<const Engine>(*std::move(stream)),
                     db.num_rows());
  }

  void TearDown() override { util::ThreadPool::SetDefaultThreadCount(0); }

  obs::MetricsRegistry registry_;
  std::unique_ptr<Router> router_;
};

TEST_F(ServeAllocTest, DispatchRequestAllocationsDoNotGrowWithTheBatch) {
  for (const char* name : {"subsample", "stream"}) {
    for (const Opcode opcode : {Opcode::kEstimate, Opcode::kAreFrequent}) {
      const Opcode expected = opcode == Opcode::kEstimate
                                  ? Opcode::kEstimateReply
                                  : Opcode::kAreFrequentReply;
      std::vector<std::size_t> counts;
      for (const std::size_t size : kSizes) {
        const auto wire = RandomWire(size, size);
        std::string body;
        ASSERT_TRUE(EncodeQueryRequest({name, wire}, &body));
        bool ok = true;
        counts.push_back(CountAllocations([&] {
          const ReplyFrame reply = DispatchRequest(*router_, opcode, body);
          ok = ok && reply.opcode == expected;
        }));
        ASSERT_TRUE(ok) << name;
      }
      std::printf("DispatchRequest %s op=%d: %zu / %zu / %zu allocations at "
                  "1 / 1000 / 100000 queries\n",
                  name, static_cast<int>(opcode), counts[0], counts[1],
                  counts[2]);
      EXPECT_EQ(counts[2], counts[1])
          << name << " op " << static_cast<int>(opcode)
          << ": allocations grow with the batch";
    }
  }
}

TEST_F(ServeAllocTest, EngineBatchedAllocationsDoNotGrowWithTheBatch) {
  for (const char* name : {"subsample", "stream"}) {
    const auto engine = router_->Acquire(name);
    ASSERT_NE(engine, nullptr);
    // flat estimate, adapter estimate, flat are-frequent, adapter
    // are-frequent
    std::vector<std::vector<std::size_t>> counts(4);
    for (const std::size_t size : kSizes) {
      const auto ts = AsItemsets(RandomWire(size, size));
      const auto batch = core::QueryBatch::FromItemsets(ts);
      counts[0].push_back(CountAllocations([&] {
        std::vector<double> answers;
        engine->estimate_many(batch, &answers);
      }));
      counts[1].push_back(CountAllocations([&] {
        std::vector<double> answers;
        engine->estimate_many(ts, &answers);
      }));
      counts[2].push_back(CountAllocations([&] {
        std::vector<bool> answers;
        engine->are_frequent(batch, &answers);
      }));
      counts[3].push_back(CountAllocations([&] {
        std::vector<bool> answers;
        engine->are_frequent(ts, &answers);
      }));
    }
    const char* forms[] = {"estimate_many flat", "estimate_many adapter",
                           "are_frequent flat", "are_frequent adapter"};
    for (std::size_t f = 0; f < 4; ++f) {
      std::printf("Engine %s %s: %zu / %zu / %zu allocations at 1 / 1000 / "
                  "100000 queries\n",
                  name, forms[f], counts[f][0], counts[f][1], counts[f][2]);
      EXPECT_EQ(counts[f][2], counts[f][1])
          << name << " " << forms[f] << ": allocations grow with the batch";
    }
  }
}

// The first estimate_many on a fresh Engine::FromFile snapshot -- what
// IngestService publishes -- builds its query view over the image's
// column section, so its allocations do not depend on d. A snapshot that
// transposed its summary on the first query would allocate per column.
TEST_F(ServeAllocTest, PublishedSnapshotFirstQueryDecodesNothing) {
  std::vector<std::size_t> counts;
  for (const std::size_t d : {std::size_t{32}, std::size_t{128}}) {
    util::Rng rng(9);
    const core::Database db =
        data::PowerLawBaskets(4000, d, 1.0, 0.5, 4, 3, 0.2, rng);
    auto built = Engine::Build(db, "STREAM-SUBSAMPLE", Params(), rng);
    ASSERT_TRUE(built.has_value());
    std::vector<core::Itemset> ts;
    for (std::size_t i = 0; i < 1000; ++i) {
      core::Itemset t(d);
      while (t.size() < 3) t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
      ts.push_back(std::move(t));
    }
    const auto batch = core::QueryBatch::FromItemsets(ts);
    std::vector<double> answers;
    built->estimate_many(batch, &answers);  // warm the pool threads
    const auto snapshot = Engine::FromFile(built->file());
    ASSERT_TRUE(snapshot.has_value());
    g_allocations.store(0);
    g_counting.store(true);
    std::vector<double> first;
    snapshot->estimate_many(batch, &first);
    g_counting.store(false);
    counts.push_back(g_allocations.load());
    EXPECT_EQ(first, answers) << "d=" << d;
  }
  std::printf("first estimate_many on a published snapshot: %zu / %zu "
              "allocations at d = 32 / 128\n",
              counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[1]) << "the first query decodes per column";
}

}  // namespace
}  // namespace ifsketch::serve
