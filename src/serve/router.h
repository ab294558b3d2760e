// Router: deterministic replicated name -> pod placement with
// health-checked failover and request coalescing.
//
// The front door over N SketchPods. Placement is R-way rendezvous
// hashing (highest-random-weight, HRW): every pod index is scored
// against the sketch name with a pure mixing function and the top R
// scores are that name's replica set, in preference order. Like the old
// single-shard FNV map this is a pure function of (name, pod count,
// replication factor) -- every client, server thread, and restart
// agrees with no routing table to synchronize -- but a name now lives
// on R pods, so one pod going down no longer makes its names
// unreachable, and a hot name's load can spread across its replicas.
//
// Health: the router tracks one state per pod -- healthy, suspect
// (recent failures, deprioritized), or down (skipped entirely). A pod
// acquire failure counts against it; kFailThreshold consecutive
// failures mark it down. Down pods are retried by at most one request
// per probe window, on an exponential backoff (options.probe_backoff
// doubling up to probe_backoff_max); a successful probe restores the
// pod to healthy and resets the backoff. Replica selection is
// load-aware among healthy replicas: least in-flight batches first,
// ties rotated so a hot name's traffic alternates across its replicas
// instead of saturating the first one.
//
// Failover is transparent and answer-preserving: a request that hits a
// refusing/failed replica simply moves to the next replica in selection
// order, and because every replica of a file-backed name opens the same
// IFSK file (and every replica of a stream name receives the same
// published snapshot), answers are bit-identical whichever replica
// serves them -- the bit-identity CI invariants hold through every
// failover path.
//
// Coalescing (unchanged from the single-shard router): concurrent
// requests against the same sketch are fused into one batched Engine
// call. Each sketch name has a group-commit slot: the first arriving
// request becomes the leader and executes immediately; requests
// arriving while a batch is in flight queue up, and when the leader
// finishes it drains the whole queue as ONE fused
// estimate_many/are_frequent batch (which fans out on the existing
// ThreadPool), scattering the answer slices back to the waiting
// clients. Fusion is answer-preserving by construction: the batched
// query kernels are bit-identical per answer slot regardless of batch
// composition (see core/sketch.h). Serial traffic never waits: with no
// batch in flight a request executes immediately, alone.
//
// Requests carry flat core::QueryBatch queries, borrowed from the caller
// for the duration of the call. A request that runs alone hands its own
// batch to the engine and receives its answers in place, with no copy;
// a fused batch appends the requests' batches end to end and scatters
// the answer slices back.
#ifndef IFSKETCH_SERVE_ROUTER_H_
#define IFSKETCH_SERVE_ROUTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/pod.h"

namespace ifsketch::serve {

/// How a routed query batch fared (mirrors protocol Status, minus
/// transport concerns).
enum class RouteStatus {
  kOk,
  kUnknownSketch,     ///< no replica's catalog has the name
  kLoadFailed,        ///< cataloged but no replica could serve it
  kUnsupportedQuery,  ///< wrong answer flavor or unsupported query size
};

/// Coalescing counters, snapshot via Router::coalesce_stats(). Since
/// PR 8 these are read back from the metrics registry
/// (serve_coalesce_*_total) as deltas against the router's
/// construction-time baseline -- the struct survives as a convenience
/// view of THIS router's traffic even when the registry is shared.
struct CoalesceStats {
  std::uint64_t batches = 0;   ///< Engine batch calls issued
  std::uint64_t requests = 0;  ///< client requests those batches served
  std::uint64_t fused = 0;     ///< requests that shared a batch with others
};

/// A pod's health as the router sees it. State machine:
/// healthy --failure--> suspect --(kFailThreshold consecutive)--> down
/// down --backoff elapses--> one probe --success--> healthy.
enum class PodHealth : std::uint8_t {
  kHealthy = 0,
  kSuspect = 1,  ///< recent failures; deprioritized but still tried
  kDown = 2,     ///< skipped until its next backoff probe
};

/// Per-pod health/load snapshot, via Router::pod_health(). The first
/// four fields travel on the wire as the HEALTH reply (protocol.h
/// PodHealthInfo); failovers/probes are in-process diagnostics.
struct PodHealthSnapshot {
  PodHealth health = PodHealth::kHealthy;
  std::uint32_t consecutive_failures = 0;
  std::uint64_t inflight = 0;        ///< query batches executing right now
  std::uint64_t resident_bytes = 0;  ///< SketchPod::resident_bytes()
  std::uint64_t failovers = 0;  ///< requests that moved past this pod
  std::uint64_t probes = 0;     ///< times a down pod was probed
};

/// Replication and health-tracking knobs.
struct RouterOptions {
  /// Replicas per name, clamped to the pod count. 1 reproduces the old
  /// single-shard behavior exactly (no failover, no spreading).
  std::size_t replication = 1;
  /// Consecutive acquire failures before a pod is marked down.
  int fail_threshold = 3;
  /// First down->probe delay; doubles per failed probe up to the max.
  std::chrono::milliseconds probe_backoff{100};
  std::chrono::milliseconds probe_backoff_max{5000};
  /// Registry the router's metrics land in (coalescing counters, batch
  /// depth, per-pod inflight/health/probe series). Null uses the
  /// process-wide obs::MetricsRegistry::Default(); tests pass their own
  /// so counters start from zero.
  obs::MetricsRegistry* registry = nullptr;
};

/// Routes named-sketch requests across replicated pods, fusing
/// concurrent batches and failing over past unhealthy replicas.
class Router {
 public:
  static constexpr std::size_t kNoPod = static_cast<std::size_t>(-1);

  explicit Router(std::vector<std::shared_ptr<SketchPod>> pods,
                  RouterOptions options = RouterOptions{});

  /// `name`'s replica pod indices in HRW preference order (size
  /// min(replication, pod_count)). Pure function of name/pod-count/R:
  /// identical across processes and restarts.
  std::vector<std::size_t> ReplicasOf(const std::string& name) const;

  /// The primary replica's index (HRW winner).
  std::size_t ShardOf(const std::string& name) const;

  /// The primary replica's pod itself.
  SketchPod& PodFor(const std::string& name);

  /// Registers a sketch file on every replica of `name` (catalog only;
  /// loaded on first use). False if the name is already registered on
  /// any of them.
  bool AddSketch(const std::string& name, const std::string& path);

  /// Registers a stream-published name on every replica (see
  /// SketchPod::AddStream).
  bool AddStream(const std::string& name);

  /// Publishes a snapshot to every replica of `name` (see
  /// SketchPod::Publish), so failover between replicas never changes
  /// the served snapshot; returns the new epoch.
  std::uint64_t Publish(const std::string& name,
                        std::shared_ptr<const Engine> engine,
                        std::uint64_t rows_seen);

  /// Whether any replica catalogs `name`.
  bool Knows(const std::string& name) const;

  /// Snapshot state from the first replica that catalogs `name`
  /// (replicas publish in lockstep, so any of them is authoritative).
  std::optional<SnapshotState> SnapshotOf(const std::string& name) const;

  /// SketchPod::WaitForEpoch on the first replica that catalogs `name`;
  /// false when no replica knows it.
  bool WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                    std::chrono::milliseconds timeout,
                    SnapshotState* out = nullptr);

  /// Acquires an engine for metadata/validation, failing over across
  /// replicas: tries them in selection order (healthy by load, then
  /// suspect, then down pods due for a probe) and returns the first
  /// success, updating health state as it goes. nullptr when unknown
  /// everywhere or no replica can serve. `served_pod` (when non-null)
  /// receives the serving pod's index, or kNoPod.
  std::shared_ptr<const Engine> Acquire(const std::string& name,
                                        std::size_t* served_pod = nullptr);

  /// Batched estimate through `name`'s replica set: Acquire, then the
  /// engine-taking overload below. kUnknownSketch / kLoadFailed when no
  /// replica serves the name.
  RouteStatus EstimateMany(const std::string& name,
                           const core::QueryBatch& batch,
                           std::vector<double>* answers);

  /// Batched threshold queries; same contract.
  RouteStatus AreFrequent(const std::string& name,
                          const core::QueryBatch& batch,
                          std::vector<bool>* answers);

  /// Overloads taking the engine (and serving pod index) the caller
  /// already holds from Acquire(name, &pod): the serving loop validates
  /// and routes with a single replica acquire per request. Any live
  /// engine for the name works -- every replica serves bit-identical
  /// answers. Coalesces with concurrent callers on the same name. A
  /// batch the engine cannot answer (universe, a query size, or an
  /// indicator-flavored sketch) fails whole with kUnsupportedQuery,
  /// never reaching the kernels; a null engine fails like the overloads
  /// above.
  RouteStatus EstimateMany(const std::string& name,
                           std::shared_ptr<const Engine> engine,
                           const core::QueryBatch& batch,
                           std::vector<double>* answers,
                           std::size_t engine_pod = kNoPod);
  RouteStatus AreFrequent(const std::string& name,
                          std::shared_ptr<const Engine> engine,
                          const core::QueryBatch& batch,
                          std::vector<bool>* answers,
                          std::size_t engine_pod = kNoPod);

  std::size_t pod_count() const { return pods_.size(); }
  std::size_t replication() const { return replication_; }
  const std::vector<std::shared_ptr<SketchPod>>& pods() const {
    return pods_;
  }

  CoalesceStats coalesce_stats() const;

  /// Per-pod health/load snapshots, pod-index order (the HEALTH reply).
  std::vector<PodHealthSnapshot> pod_health() const;

  /// The registry this router's metrics land in (the STATS reply source).
  obs::MetricsRegistry& registry() const { return *registry_; }

 private:
  /// One waiting client request inside a coalescing slot.
  struct Pending {
    const core::QueryBatch* batch = nullptr;
    std::vector<double>* estimates = nullptr;   // exactly one of these
    std::vector<bool>* bits = nullptr;          // two is non-null
    std::shared_ptr<const Engine> engine;       // acquired by the caller
    std::size_t engine_pod = kNoPod;            // who served `engine`
    RouteStatus status = RouteStatus::kOk;
    bool done = false;
  };

  /// Group-commit state for one sketch name. Estimate and indicator
  /// requests coalesce in the same queue; the drain step splits them
  /// into (at most) one fused batch per flavor.
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    bool busy = false;
    std::vector<Pending*> queue;
  };

  /// Mutable per-pod health state; guarded by health_mu_.
  struct PodState {
    PodHealth health = PodHealth::kHealthy;
    int consecutive_failures = 0;
    std::uint64_t inflight = 0;
    std::uint64_t failovers = 0;
    std::uint64_t probes = 0;
    std::chrono::milliseconds backoff{0};  // set from options at first down
    std::chrono::steady_clock::time_point next_probe{};
  };

  RouteStatus Route(const std::string& name,
                    std::shared_ptr<const Engine> engine,
                    std::size_t engine_pod, const core::QueryBatch& batch,
                    std::vector<double>* estimates,
                    std::vector<bool>* bits);

  /// Executes one fused batch for every request in `batch` (all the same
  /// flavor), writing each request's slice and status.
  void RunFused(const std::string& name, const std::vector<Pending*>& batch,
                bool estimator_flavor);

  /// Answers `count` validated requests with one engine call and returns
  /// the queries answered. A lone request's batch goes to the engine as
  /// is, its answers written in place; several are appended into one
  /// batch and their answer slices copied back.
  static std::size_t RunGroup(const Engine& engine, Pending* const* group,
                              std::size_t count, bool estimator_flavor);

  /// `name`'s replicas in selection order: healthy by ascending
  /// in-flight load (ties rotated), then suspect, then down pods whose
  /// probe backoff has elapsed (down pods not yet due are excluded).
  std::vector<std::size_t> SelectionOrder(const std::string& name);

  void ReportSuccess(std::size_t pod);
  void ReportFailure(std::size_t pod);
  void AddInflight(std::size_t pod, std::int64_t delta);

  Slot& SlotFor(const std::string& name);

  std::vector<std::shared_ptr<SketchPod>> pods_;
  std::size_t replication_;
  RouterOptions options_;

  std::mutex slots_mu_;
  // Node-stable map: Slot addresses must survive concurrent SlotFor
  // calls (slots are created on first use and never removed).
  std::map<std::string, Slot> slots_;

  mutable std::mutex health_mu_;
  std::vector<PodState> pod_states_;
  std::uint64_t tie_rotor_ = 0;  // rotates equal-load replica ties

  // Registry metrics, resolved once in the constructor (hot paths touch
  // only these pre-resolved lock-free pointers; see obs/metrics.h).
  obs::MetricsRegistry* registry_;
  obs::Counter* coalesce_batches_;
  obs::Counter* coalesce_requests_;
  obs::Counter* coalesce_fused_;
  obs::Histogram* coalesce_depth_;
  // Counter values at construction: coalesce_stats() reports deltas so
  // a router sharing the process-wide registry with predecessors still
  // reports only its own traffic.
  CoalesceStats coalesce_baseline_;
  struct PodMetrics {
    obs::Gauge* inflight;
    obs::Counter* health_transitions;
    obs::Counter* probes;
    obs::Counter* failovers;
  };
  std::vector<PodMetrics> pod_metrics_;
};

}  // namespace ifsketch::serve

#endif  // IFSKETCH_SERVE_ROUTER_H_
