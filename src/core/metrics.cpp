#include "core/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace amsyn::core::metrics {

namespace {

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
};

}  // namespace

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::uint32_t> counterIndex;
  std::vector<std::string> counterNames;
  /// counterNames.size(), store-released once a name is registered, so
  /// counterCount() — read at every span open and close — takes no lock.
  std::atomic<std::size_t> counterCount{0};
  std::vector<std::shared_ptr<Shard>> shards;  ///< live thread shards
  // Totals folded in by exiting threads so their contributions survive them.
  std::array<std::uint64_t, kMaxCounters> retiredCounters{};

  void retire(const std::shared_ptr<Shard>& s) {
    std::lock_guard<std::mutex> lk(mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i)
      retiredCounters[i] += s->counters[i].load(std::memory_order_relaxed);
    shards.erase(std::remove(shards.begin(), shards.end(), s), shards.end());
  }

  std::uint64_t counterTotalLocked(std::uint32_t idx) const {
    std::uint64_t total = retiredCounters[idx];
    for (const auto& s : shards) total += s->counters[idx].load(std::memory_order_relaxed);
    return total;
  }
};

namespace {

/// Per-thread shard handle: lazily registers with the registry, and folds
/// this thread's totals into the retired accumulators on thread exit — the
/// step the old thread_local LU counters never had, which is why pool-thread
/// counters used to vanish.
struct ShardHandle {
  std::shared_ptr<Shard> shard;
  Registry::Impl* owner = nullptr;
  ~ShardHandle() {
    if (owner && shard) owner->retire(shard);
  }
};
thread_local ShardHandle tlShard;

Shard& threadShard(Registry::Impl& impl) {
  if (!tlShard.shard) {
    auto s = std::make_shared<Shard>();
    {
      std::lock_guard<std::mutex> lk(impl.mutex);
      impl.shards.push_back(s);
    }
    tlShard.shard = std::move(s);
    tlShard.owner = &impl;
  }
  return *tlShard.shard;
}

}  // namespace

Registry& Registry::instance() {
  static Registry* r = new Registry;  // leaked: reachable from thread-exit hooks
  return *r;
}

Registry::Impl& Registry::impl() const {
  static Impl* i = new Impl;
  return *i;
}

CounterId Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.counterIndex.find(name);
  if (it != im.counterIndex.end()) return {it->second};
  if (im.counterNames.size() >= kMaxCounters)
    throw std::length_error(
        "metrics::Registry: counter capacity exhausted registering \"" + name +
        "\" (" + std::to_string(im.counterNames.size()) + "/" +
        std::to_string(kMaxCounters) + " counters in use; raise kMaxCounters)");
  const auto idx = static_cast<std::uint32_t>(im.counterNames.size());
  im.counterNames.push_back(name);
  im.counterIndex.emplace(name, idx);
  im.counterCount.store(im.counterNames.size(), std::memory_order_release);
  return {idx};
}

void Registry::add(CounterId id, std::uint64_t delta) {
  threadShard(impl()).counters[id.idx].fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t Registry::total(const std::string& name) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.counterIndex.find(name);
  return it != im.counterIndex.end() ? im.counterTotalLocked(it->second) : 0;
}

void Registry::threadCounterSnapshot(std::uint64_t* out, std::size_t count) const {
  if (!tlShard.shard) {
    std::fill(out, out + count, 0);
    return;
  }
  for (std::size_t i = 0; i < count && i < kMaxCounters; ++i)
    out[i] = tlShard.shard->counters[i].load(std::memory_order_relaxed);
}

std::size_t Registry::counterCount() const {
  // Lock-free: a count that trails a concurrent registration only omits the
  // newest ids, and every shard array is sized kMaxCounters regardless.
  return impl().counterCount.load(std::memory_order_acquire);
}

std::string Registry::counterName(std::uint32_t idx) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  return idx < im.counterNames.size() ? im.counterNames[idx] : std::string{};
}

Snapshot Registry::snapshot() const {
  Impl& im = impl();
  Snapshot snap;
  std::lock_guard<std::mutex> lk(im.mutex);
  for (std::uint32_t i = 0; i < im.counterNames.size(); ++i)
    snap.counters[im.counterNames[i]] = im.counterTotalLocked(i);
  return snap;
}

Registry& registry() { return Registry::instance(); }

}  // namespace amsyn::core::metrics
