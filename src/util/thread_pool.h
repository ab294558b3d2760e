// A small fixed-size thread pool driving chunked parallel-for loops.
//
// The batched query kernels (ColumnStore::SupportCounts, the estimator
// EstimateMany overrides, Engine::estimate_many) fan a batch of
// independent queries out across threads. The contract that makes this
// safe to expose at the library surface:
//
//   * Determinism. ParallelFor partitions [begin, end) into contiguous
//     chunks and each index writes only its own result slot, so answers
//     are bit-identical to the serial loop regardless of thread count or
//     scheduling. No reductions cross chunk boundaries.
//   * Caller participation. The calling thread executes chunks alongside
//     the workers, so ParallelFor never deadlocks even when every worker
//     is busy with someone else's job (including nested or concurrent
//     ParallelFor calls from many user threads).
//   * Sizing. Default() lazily builds one process-wide pool sized from
//     the IFSKETCH_THREADS environment variable if set, otherwise
//     std::thread::hardware_concurrency(). SetDefaultThreadCount(t)
//     re-sizes it; call it from configuration code (CLI flags, bench
//     sweeps) before issuing queries -- it must not race with in-flight
//     ParallelFor calls on the default pool.
//
// A pool of size 1 (or a range smaller than one grain) degenerates to
// running the body inline on the caller, so single-threaded builds pay
// nothing but a branch.
#ifndef IFSKETCH_UTIL_THREAD_POOL_H_
#define IFSKETCH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace ifsketch::util {

/// Fixed-size worker pool with a chunked, deterministic ParallelFor.
class ThreadPool {
 public:
  /// Creates a pool that runs loops on `threads` threads total (the
  /// caller counts as one; `threads - 1` workers are spawned). `threads`
  /// is clamped to at least 1.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads a loop may use, caller included.
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Invokes body(first, last) over contiguous sub-ranges that exactly
  /// cover [begin, end), each at least `grain` indices (except possibly
  /// the final chunk). Blocks until every chunk has run. The body must
  /// only write state owned by its own indices.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body);

  /// The process-wide pool used by the batched query kernels.
  static ThreadPool& Default();

  /// Re-sizes the default pool to `threads` (0 = auto: IFSKETCH_THREADS
  /// env var, else hardware concurrency). Configuration-time only: must
  /// not race with queries using the default pool.
  static void SetDefaultThreadCount(std::size_t threads);

  /// The thread count Default() currently runs with.
  static std::size_t DefaultThreadCount();

 private:
  struct LoopJob;

  void WorkerLoop();
  static void DrainLoop(LoopJob& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  // FIFO ring of queued helpers, one entry per worker a ParallelFor call
  // asks for: queue_[head_], ... for queued_ entries, wrapping. It grows
  // (doubling) only when full, so once warm a call queues its helpers
  // without allocating.
  std::vector<std::shared_ptr<LoopJob>> queue_;
  std::size_t head_ = 0;
  std::size_t queued_ = 0;
  bool stop_ = false;
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_THREAD_POOL_H_
