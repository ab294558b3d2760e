#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/metrics.h"

namespace ifsketch::util {
namespace {

// Resolved once; every queue mutation then costs one relaxed store.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Default().GetGauge("threadpool_queue_depth");
  return *gauge;
}

}  // namespace

// One ParallelFor invocation. Lives on the heap via shared_ptr so that a
// worker dequeuing the job after all chunks were claimed (and the caller
// already returned) still finds valid memory to inspect.
struct ThreadPool::LoopJob {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunk = 0;
  std::size_t num_chunks = 0;
  // Owned by the caller's stack frame; valid until `done == num_chunks`,
  // which the caller waits for before returning.
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
};

// Claims and runs chunks until the job is exhausted.
void ThreadPool::DrainLoop(LoopJob& job) {
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.num_chunks) return;
    const std::size_t first = job.begin + c * job.chunk;
    const std::size_t last = std::min(job.end, first + job.chunk);
    (*job.body)(first, last);
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      std::lock_guard<std::mutex> lock(job.mu);
      job.cv.notify_all();
    }
  }
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t workers = threads < 2 ? 0 : threads - 1;
  // Room for a few concurrent callers' helpers before the ring must grow.
  queue_.resize(std::max<std::size_t>(16, 4 * workers));
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<LoopJob> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || queued_ != 0; });
      if (queued_ == 0) return;  // stop_ set and nothing left to drain
      job = std::move(queue_[head_]);
      head_ = (head_ + 1) % queue_.size();
      --queued_;
      QueueDepthGauge().Set(static_cast<std::int64_t>(queued_));
    }
    DrainLoop(*job);
  }
}

void ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t range = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  const std::size_t threads = thread_count();
  // Cap chunks at a small multiple of the thread count: enough slack for
  // load balancing, few enough that claim overhead stays negligible.
  std::size_t num_chunks =
      std::min((range + grain - 1) / grain, threads * 4);
  if (threads == 1 || num_chunks <= 1) {
    body(begin, end);
    return;
  }
  auto job = std::make_shared<LoopJob>();
  job->begin = begin;
  job->end = end;
  // Never split below the grain: only the final chunk may be short.
  job->chunk = std::max(grain, (range + num_chunks - 1) / num_chunks);
  job->num_chunks = (range + job->chunk - 1) / job->chunk;
  job->body = &body;

  const std::size_t helpers = std::min(threads - 1, job->num_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queued_ + helpers > queue_.size()) {
      std::vector<std::shared_ptr<LoopJob>> grown(
          std::max(2 * queue_.size(), queued_ + helpers));
      for (std::size_t i = 0; i < queued_; ++i) {
        grown[i] = std::move(queue_[(head_ + i) % queue_.size()]);
      }
      queue_.swap(grown);
      head_ = 0;
    }
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_[(head_ + queued_++) % queue_.size()] = job;
    }
    QueueDepthGauge().Set(static_cast<std::int64_t>(queued_));
  }
  cv_.notify_all();
  DrainLoop(*job);  // the caller is one of the loop's threads

  std::unique_lock<std::mutex> lock(job->mu);
  job->cv.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) >= job->num_chunks;
  });
}

namespace {

std::mutex g_default_mu;
std::size_t g_default_threads = 0;  // 0 = auto-size
std::unique_ptr<ThreadPool> g_default_pool;

std::size_t AutoThreadCount() {
  if (const char* env = std::getenv("IFSKETCH_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool& ThreadPool::Default() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_pool == nullptr) {
    const std::size_t t =
        g_default_threads == 0 ? AutoThreadCount() : g_default_threads;
    g_default_pool = std::make_unique<ThreadPool>(t);
  }
  return *g_default_pool;
}

void ThreadPool::SetDefaultThreadCount(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  g_default_threads = threads;
  g_default_pool.reset();  // rebuilt lazily at the next Default() call
}

std::size_t ThreadPool::DefaultThreadCount() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_pool != nullptr) return g_default_pool->thread_count();
  return g_default_threads == 0 ? AutoThreadCount() : g_default_threads;
}

}  // namespace ifsketch::util
