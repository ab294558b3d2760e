#include "serve/pod.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace ifsketch::serve {

namespace {

// Default pod= label: process-unique creation ordinal, which matches
// router pod indices when pods are created in index order.
std::string NextPodLabel() {
  static std::atomic<std::uint64_t> next{0};
  return std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

SketchPod::SketchPod(std::size_t byte_budget, obs::MetricsRegistry* registry,
                     std::string label)
    : registry_(registry != nullptr ? registry
                                    : &obs::MetricsRegistry::Default()),
      label_(label.empty() ? NextPodLabel() : std::move(label)),
      byte_budget_(byte_budget) {}

SketchPod::EntryMetrics SketchPod::ResolveMetrics(
    const std::string& name) const {
  auto series = [this, &name](const char* base) {
    return obs::LabeledName2(base, "pod", label_, "sketch", name);
  };
  EntryMetrics m;
  m.hits = registry_->GetCounter(series("serve_sketch_hits_total"));
  m.loads = registry_->GetCounter(series("serve_sketch_loads_total"));
  m.evictions =
      registry_->GetCounter(series("serve_sketch_evictions_total"));
  m.queries = registry_->GetCounter(series("serve_sketch_queries_total"));
  m.publishes =
      registry_->GetCounter(series("serve_sketch_publishes_total"));
  m.epoch = registry_->GetGauge(series("serve_sketch_epoch"));
  return m;
}

bool SketchPod::AddSketch(const std::string& name, const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.path = path;
  entry.metrics = ResolveMetrics(name);
  return catalog_.emplace(name, std::move(entry)).second;
}

bool SketchPod::AddStream(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry entry;
  entry.metrics = ResolveMetrics(name);
  return catalog_.emplace(name, std::move(entry)).second;
}

std::uint64_t SketchPod::Publish(const std::string& name,
                                 std::shared_ptr<const Engine> engine,
                                 std::uint64_t rows_seen) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = catalog_[name];  // auto-registers with an empty path
  if (entry.metrics.hits == nullptr) entry.metrics = ResolveMetrics(name);
  const std::size_t bytes = engine->resident_bytes();
  resident_bytes_ -= entry.bytes;
  // The old snapshot's shared_ptr is dropped exactly like eviction:
  // in-flight queries keep it alive until they finish.
  entry.engine = std::move(engine);
  entry.bytes = bytes;
  entry.last_used = ++lru_clock_;
  entry.rows_seen = rows_seen;
  entry.metrics.publishes->Add();
  ++entry.epoch;
  entry.metrics.epoch->Set(static_cast<std::int64_t>(entry.epoch));
  resident_bytes_ += bytes;
  // The new snapshot is pinned (EvictToFitLocked skips path-less
  // entries), so making room only displaces file-backed residents.
  if (byte_budget_ != kUnlimited) EvictToFitLocked(byte_budget_);
  cv_.notify_all();
  if (publish_hook_) publish_hook_();
  return entry.epoch;
}

std::optional<SnapshotState> SketchPod::SnapshotOf(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return std::nullopt;
  return SnapshotState{it->second.epoch, it->second.rows_seen};
}

bool SketchPod::WaitForEpoch(const std::string& name, std::uint64_t min_epoch,
                             std::chrono::milliseconds timeout,
                             SnapshotState* out) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return false;
  // Entries are never erased and std::map nodes are address-stable, so
  // the pointer stays valid across the wait.
  Entry* entry = &it->second;
  cv_.wait_for(lock, timeout,
               [entry, min_epoch] { return entry->epoch > min_epoch; });
  if (out != nullptr) *out = SnapshotState{entry->epoch, entry->rows_seen};
  return true;
}

std::shared_ptr<const Engine> SketchPod::Acquire(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  // A faulted pod refuses before touching its catalog, exactly like a
  // dead replica would.
  if (fault_.fail_acquire) return nullptr;
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return nullptr;
  Entry& entry = it->second;
  entry.last_used = ++lru_clock_;
  if (entry.engine != nullptr) {
    entry.metrics.hits->Add();
    return entry.engine;
  }
  // A stream sketch with no snapshot yet has nothing to load from.
  if (entry.path.empty()) return nullptr;

  // Open outside the lock: file I/O and payload validation can be slow,
  // and other names must stay servable meanwhile. The slot is re-checked
  // after reacquiring in case a concurrent Acquire won the race.
  const std::string path = entry.path;
  lock.unlock();
  auto opened = Engine::Open(path);
  lock.lock();
  it = catalog_.find(name);
  if (it == catalog_.end()) return nullptr;
  Entry& slot = it->second;
  if (slot.engine != nullptr) {
    slot.metrics.hits->Add();
    return slot.engine;
  }
  if (!opened.has_value()) return nullptr;

  auto engine = std::make_shared<const Engine>(*std::move(opened));
  const std::size_t bytes = engine->resident_bytes();
  // Make room first; the incoming sketch is not resident yet, so it can
  // never be its own victim. A sketch bigger than the whole budget gets
  // everything evicted and is then admitted alone.
  if (byte_budget_ != kUnlimited) {
    EvictToFitLocked(bytes <= byte_budget_ ? byte_budget_ - bytes : 0);
  }
  slot.engine = std::move(engine);
  slot.bytes = bytes;
  slot.last_used = ++lru_clock_;
  slot.rows_seen = slot.engine->n();
  slot.metrics.loads->Add();
  resident_bytes_ += bytes;
  return slot.engine;
}

bool SketchPod::Knows(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return catalog_.count(name) > 0;
}

bool SketchPod::IsUnpublishedStream(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it == catalog_.end()) return false;
  const Entry& entry = it->second;
  return entry.path.empty() && entry.engine == nullptr && entry.epoch == 0;
}

std::vector<std::string> SketchPod::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) names.push_back(name);
  return names;
}

void SketchPod::CountQueries(const std::string& name, std::uint64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = catalog_.find(name);
  if (it != catalog_.end()) it->second.metrics.queries->Add(count);
}

std::vector<SketchStats> SketchPod::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SketchStats> out;
  out.reserve(catalog_.size());
  for (const auto& [name, entry] : catalog_) {
    SketchStats s;
    s.name = name;
    s.hits = entry.metrics.hits->Value();
    s.loads = entry.metrics.loads->Value();
    s.evictions = entry.metrics.evictions->Value();
    s.queries = entry.metrics.queries->Value();
    s.publishes = entry.metrics.publishes->Value();
    s.resident = entry.engine != nullptr;
    s.resident_bytes = s.resident ? entry.bytes : 0;
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t SketchPod::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

void SketchPod::SetByteBudget(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  byte_budget_ = bytes;
  if (byte_budget_ != kUnlimited) EvictToFitLocked(byte_budget_);
}

std::size_t SketchPod::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return byte_budget_;
}

void SketchPod::SetFault(const PodFault& fault) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_ = fault;
}

void SketchPod::SetPublishHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_hook_ = std::move(hook);
}

void SketchPod::EvictToFitLocked(std::size_t budget) {
  while (resident_bytes_ > budget) {
    Entry* victim = nullptr;
    for (auto& [name, entry] : catalog_) {
      // Published snapshots are pinned: with no backing file there is no
      // way to reload one, so eviction would lose it outright.
      if (entry.engine == nullptr || entry.path.empty()) continue;
      if (victim == nullptr || entry.last_used < victim->last_used) {
        victim = &entry;
      }
    }
    if (victim == nullptr) return;  // nothing evictable remains
    // In-flight queries hold their own shared_ptr; this only drops the
    // pod's reference, so the engine is destroyed once they finish.
    victim->engine.reset();
    resident_bytes_ -= victim->bytes;
    victim->bytes = 0;
    victim->metrics.evictions->Add();
  }
}

}  // namespace ifsketch::serve
