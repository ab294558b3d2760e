// SketchPod: a multi-tenant host for many named sketches.
//
// One pod owns a name -> IFSK-path catalog and materializes Engine
// instances on demand (Engine::Open on first Acquire), holding them
// resident under an LRU + byte-budget admission policy. The byte budget
// is accounted in Engine::resident_bytes(): for arena v2 files and
// published snapshots that is the whole image, column section included
// -- what eviction actually gives back -- and for decoded v1 files the
// owned summary payload bytes; either way the dominant, size-predictable
// term (the derived query views are a small multiple of it, and for
// row-major sketches the views borrow the image outright). Loading a
// sketch that would push the pod over budget first evicts
// least-recently-acquired residents; a sketch larger than the whole
// budget is still admitted, alone, after everything else is evicted
// (refusing it would make the pod unable to serve that name at all).
//
// Eviction only drops the pod's reference. Acquire hands out
// shared_ptr<const Engine>, so queries already in flight on an evicted
// sketch finish safely on their own reference -- for a mapped engine the
// munmap is deferred the same way, until the last in-flight query
// releases it; the next Acquire remaps from the catalog path. All
// catalog/LRU/stat state is mutex-guarded; queries themselves run
// outside the lock on the shared Engine (whose query surface is
// const-thread-safe, see engine.h).
//
// Stream-published sketches (the ingest path, src/ingest/) have no
// backing file: Publish() swaps in each freshly built snapshot with the
// same shared_ptr discipline, bumps the per-name epoch (0 = nothing
// published yet), wakes WaitForEpoch callers and calls the publish hook
// (the reactor's, which answers parked SUBSCRIBEs). Published snapshots
// are explicitly placed hot objects: they count against the byte budget
// -- displacing file-backed LRU residents -- but are never eviction
// victims themselves, because there is no path to reload them from;
// only the next Publish replaces one.
#ifndef IFSKETCH_SERVE_POD_H_
#define IFSKETCH_SERVE_POD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "engine.h"
#include "obs/metrics.h"

namespace ifsketch::serve {

/// Per-sketch counters, snapshot via SketchPod::stats(). Since PR 8 the
/// counters live in the pod's metrics registry
/// (serve_sketch_*_total{pod=...,sketch=...}); this struct is the
/// read-back view existing callers keep using.
struct SketchStats {
  std::string name;
  std::uint64_t hits = 0;       ///< Acquire calls served by a resident engine
  std::uint64_t loads = 0;      ///< Engine::Open calls (misses that loaded)
  std::uint64_t evictions = 0;  ///< times the budget pushed it out
  std::uint64_t queries = 0;    ///< individual query answers served
  std::uint64_t publishes = 0;  ///< snapshots published via Publish()
  std::size_t resident_bytes = 0;  ///< 0 when not resident
  bool resident = false;
};

/// Which snapshot a sketch name is currently serving. epoch starts at 0
/// (nothing published; for file-backed sketches it stays 0) and
/// increments once per Publish. rows_seen is the stream prefix the
/// snapshot covers (the engine's n) -- for a file-backed sketch, the
/// file's n once loaded.
struct SnapshotState {
  std::uint64_t epoch = 0;
  std::uint64_t rows_seen = 0;
};

/// Fault hooks for failover testing: a faulted pod behaves like a dead
/// or overloaded replica without anything actually dying. Injected via
/// SketchPod::SetFault; all hooks default off.
struct PodFault {
  /// Every Acquire returns nullptr (the pod "refuses" to serve), which
  /// the router counts as a pod failure and fails over past.
  bool fail_acquire = false;
};

/// Hosts many named sketches behind one byte budget.
class SketchPod {
 public:
  /// No eviction until a budget is set.
  static constexpr std::size_t kUnlimited = static_cast<std::size_t>(-1);

  /// `registry` is where the per-sketch counter series land (null uses
  /// the process-wide obs::MetricsRegistry::Default()); `label` is the
  /// pod= label value on those series and defaults to a process-unique
  /// ordinal, which matches router pod indices when pods are created in
  /// index order (as ifsketch_server does).
  explicit SketchPod(std::size_t byte_budget = kUnlimited,
                     obs::MetricsRegistry* registry = nullptr,
                     std::string label = std::string());

  /// Registers `name` as servable from the IFSK file at `path`. The file
  /// is not opened until first Acquire. False if the name is taken.
  bool AddSketch(const std::string& name, const std::string& path);

  /// Registers `name` as a stream-published sketch with no backing file:
  /// it serves nothing until the first Publish. False if the name is
  /// taken. (Publish auto-registers, so this exists to reserve the name
  /// up front -- e.g. before the first row is pushed.)
  bool AddStream(const std::string& name);

  /// Atomically swaps in a freshly built snapshot for `name`,
  /// auto-registering the name as a stream sketch if needed, and returns
  /// the new epoch (1 for the first snapshot). The previous snapshot is
  /// retired exactly like eviction: in-flight queries finish on their
  /// own shared_ptr. Published snapshots are pinned -- they count
  /// against the byte budget (file-backed residents are evicted to make
  /// room) but are never evicted themselves, only replaced by the next
  /// Publish. Wakes all WaitForEpoch waiters and calls the publish hook.
  std::uint64_t Publish(const std::string& name,
                        std::shared_ptr<const Engine> engine,
                        std::uint64_t rows_seen);

  /// The current snapshot state of `name`; nullopt when unregistered.
  std::optional<SnapshotState> SnapshotOf(const std::string& name) const;

  /// Blocks until `name`'s epoch exceeds `min_epoch`, the timeout
  /// elapses, or the name is unregistered (returns false only in that
  /// last case). On true, *out (when non-null) holds the final state --
  /// callers distinguish satisfied from timed-out by comparing
  /// out->epoch with min_epoch.
  bool WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                    std::chrono::milliseconds timeout,
                    SnapshotState* out = nullptr);

  /// The engine for `name`, loading (and evicting) as needed. nullptr
  /// when the name is unregistered, its file fails to open, or it is a
  /// stream sketch with no snapshot published yet -- callers distinguish
  /// unregistered from the rest with Knows().
  std::shared_ptr<const Engine> Acquire(const std::string& name);

  /// Whether `name` is in the catalog (resident or not).
  bool Knows(const std::string& name) const;

  /// True when `name` is a stream sketch that has not published its
  /// first snapshot: Acquire returning nullptr for it is expected, not
  /// a pod failure (the router must not count it against health).
  bool IsUnpublishedStream(const std::string& name) const;

  /// Registered names, sorted (catalog order, not residency).
  std::vector<std::string> Names() const;

  /// Adds `count` served answers to `name`'s query counter.
  void CountQueries(const std::string& name, std::uint64_t count);

  /// Per-sketch counters, sorted by name.
  std::vector<SketchStats> stats() const;

  /// Total bytes currently resident (sum of Engine::resident_bytes over
  /// loaded engines: mapped image sizes and owned summary bytes).
  std::size_t resident_bytes() const;

  /// Re-budgets the pod, evicting LRU residents to fit immediately.
  void SetByteBudget(std::size_t bytes);
  std::size_t byte_budget() const;

  /// Installs (or, with a default-constructed PodFault, clears) the
  /// fault hooks. Thread-safe; takes effect on the next Acquire.
  void SetFault(const PodFault& fault);

  /// Installs (or, with an empty function, removes) the hook every
  /// Publish calls on the publishing thread under the pod's lock, so no
  /// call of the old hook runs once this returns. It must be cheap and
  /// must not call back into the pod: the reactor's writes its loops'
  /// eventfds (serve/reactor.h).
  void SetPublishHook(std::function<void()> hook);

 private:
  /// Registry series backing one catalog entry's counters, resolved
  /// when the entry is created (cold path). The entry's own fields keep
  /// only what the pod's logic needs under mu_; everything countable
  /// lives in the registry so STATS and stats() read the same numbers.
  struct EntryMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* loads = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* queries = nullptr;
    obs::Counter* publishes = nullptr;
    obs::Gauge* epoch = nullptr;  // published epoch; cross-pod max -
                                  // value = replica epoch lag
  };

  struct Entry {
    std::string path;  // empty for stream-published sketches
    std::shared_ptr<const Engine> engine;  // null when not resident
    std::size_t bytes = 0;                 // resident summary bytes
    std::uint64_t last_used = 0;           // LRU tick of last Acquire
    std::uint64_t epoch = 0;      // 0 until the first Publish
    std::uint64_t rows_seen = 0;  // prefix covered by the current engine
    EntryMetrics metrics;
  };

  /// Resolves the registry series for `name` (caller holds mu_; the
  /// registry has its own lock and never calls back into the pod).
  EntryMetrics ResolveMetrics(const std::string& name) const;

  /// Evicts least-recently-used residents until resident bytes fit
  /// `budget`. Caller holds mu_.
  void EvictToFitLocked(std::size_t budget);

  mutable std::mutex mu_;
  std::condition_variable cv_;  // signaled on every Publish
  std::map<std::string, Entry> catalog_;
  obs::MetricsRegistry* registry_;
  std::string label_;
  std::size_t byte_budget_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t lru_clock_ = 0;
  PodFault fault_;  // failover-test hooks, default all-off
  std::function<void()> publish_hook_;  // empty unless a reactor serves
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_POD_H_
