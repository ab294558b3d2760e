// Streaming frequent-itemset monitoring (the §1.2 streaming discussion).
//
// Event logs arrive one row at a time; the ingest subsystem
// (src/ingest/) maintains a STREAM-SUBSAMPLE summary in one pass and
// constant memory -- the paper proves no streaming algorithm can
// maintain asymptotically less state than this sample, so this is also
// the right baseline architecture. Each Push observes its row on the
// calling thread, and the Push that ends a phase publishes an immutable
// Engine snapshot into a SketchPod before it returns; the monitor waits
// for the epoch to advance (exactly what a remote client does with the
// SUBSCRIBE opcode) and mines the published snapshot.

#include <chrono>
#include <cstdio>

#include "data/generators.h"
#include "ingest/ingest.h"
#include "mining/apriori.h"
#include "serve/pod.h"
#include "sketch/subsample.h"
#include "util/random.h"

int main() {
  using namespace ifsketch;

  const std::size_t d = 20;
  const std::size_t kPhaseRows = 150000;
  core::SketchParams params;
  params.k = 2;
  params.eps = 0.02;
  params.delta = 0.05;
  params.scope = core::Scope::kForAll;
  params.answer = core::Answer::kEstimator;

  const std::size_t slots = sketch::SubsampleSketch::SampleCount(params, d);
  std::printf("reservoir: %zu slots x %zu bits = %zu bits of state\n", slots,
              d, slots * d);

  serve::SketchPod pod;
  pod.AddStream("live");

  ingest::IngestOptions options;
  options.algorithm = "STREAM-SUBSAMPLE";
  options.params = params;
  options.d = d;
  options.seed = 99;
  options.rows_per_snapshot = kPhaseRows;  // one epoch per phase
  std::string error;
  auto service = ingest::IngestService::Create(
      options,
      [&pod](std::shared_ptr<const Engine> engine, std::uint64_t rows) {
        pod.Publish("live", std::move(engine), rows);
      },
      &error);
  if (service == nullptr) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }

  // Simulate a drifting event stream: the hot itemset changes mid-stream.
  core::Database full_log(0, d);
  util::Rng gen(123);
  const data::Planted phase1{{1, 4}, 0.3};
  const data::Planted phase2{{7, 9}, 0.4};
  for (int phase = 0; phase < 2; ++phase) {
    const core::Database chunk = data::PlantedItemsets(
        kPhaseRows, d, {phase == 0 ? phase1 : phase2}, 0.05, gen);
    for (std::size_t i = 0; i < chunk.num_rows(); ++i) {
      service->Push(chunk.Row(i));
      full_log.AppendRow(chunk.Row(i));
    }
    // Wait for the end-of-phase snapshot (epoch phase+1), then query it.
    // The Push of the phase's last row published it, so this returns at
    // once here; a reader on another thread would block until it lands.
    serve::SnapshotState state;
    if (!pod.WaitForEpoch("live", static_cast<std::uint64_t>(phase),
                          std::chrono::milliseconds(60000), &state) ||
        state.epoch <= static_cast<std::uint64_t>(phase)) {
      std::fprintf(stderr, "error: snapshot did not publish\n");
      return 1;
    }
    const auto engine = pod.Acquire("live");
    mining::AprioriOptions opt;
    opt.min_frequency = 0.1;
    opt.max_size = 2;
    const auto hot = engine->mine(opt);
    std::printf("after %zu events: %zu frequent itemsets;",
                static_cast<std::size_t>(state.rows_seen), hot.size());
    const core::Itemset t1(d, {1, 4});
    const core::Itemset t2(d, {7, 9});
    std::printf("  f{1,4}=%.3f (true %.3f)  f{7,9}=%.3f (true %.3f)\n",
                engine->estimate(t1), full_log.Frequency(t1),
                engine->estimate(t2), full_log.Frequency(t2));
  }
  service->Finish();
  return 0;
}
