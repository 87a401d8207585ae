#include "core/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace amsyn::core::metrics {

namespace {

struct HistSlot {
  // Only the owning thread writes these (relaxed stores); the aggregator
  // only loads, so no CAS loops are needed anywhere on the hot path.
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<HistSlot, kMaxHistograms> hists{};
};

void mergeHist(HistogramSnapshot& into, std::uint64_t count, double sum, double mn,
               double mx) {
  into.count += count;
  into.sum += sum;
  into.min = std::min(into.min, mn);
  into.max = std::max(into.max, mx);
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::uint32_t> counterIndex;
  std::vector<std::string> counterNames;
  /// counterNames.size(), store-released once a name is registered, so
  /// counterCount() — read at every span open and close — takes no lock.
  std::atomic<std::size_t> counterCount{0};
  std::map<std::string, std::uint32_t> histIndex;
  std::vector<std::string> histNames;
  std::map<std::string, double> gauges;
  std::vector<std::shared_ptr<Shard>> shards;  ///< live thread shards
  // Totals folded in by exiting threads so their contributions survive them.
  std::array<std::uint64_t, kMaxCounters> retiredCounters{};
  std::array<HistogramSnapshot, kMaxHistograms> retiredHists{};

  void retire(const std::shared_ptr<Shard>& s) {
    std::lock_guard<std::mutex> lk(mutex);
    for (std::size_t i = 0; i < kMaxCounters; ++i)
      retiredCounters[i] += s->counters[i].load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      const auto& h = s->hists[i];
      const std::uint64_t c = h.count.load(std::memory_order_relaxed);
      if (c == 0) continue;
      mergeHist(retiredHists[i], c, h.sum.load(std::memory_order_relaxed),
                h.min.load(std::memory_order_relaxed),
                h.max.load(std::memory_order_relaxed));
    }
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

/// The calling thread's active per-context slice (nullptr = unsliced).
/// Owned by whatever ExecutionContext installed it; a SliceScope strictly
/// outlives the recording it covers, so no lifetime management is needed
/// here.
thread_local ContextSlice* tlSlice = nullptr;

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

HistogramId Registry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  auto it = im.histIndex.find(name);
  if (it != im.histIndex.end()) return {it->second};
  if (im.histNames.size() >= kMaxHistograms)
    throw std::length_error(
        "metrics::Registry: histogram capacity exhausted registering \"" + name +
        "\" (" + std::to_string(im.histNames.size()) + "/" +
        std::to_string(kMaxHistograms) +
        " histograms in use; raise kMaxHistograms)");
  const auto idx = static_cast<std::uint32_t>(im.histNames.size());
  im.histNames.push_back(name);
  im.histIndex.emplace(name, idx);
  return {idx};
}

void Registry::setGauge(const std::string& name, double value) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  im.gauges[name] = value;
}

void Registry::add(CounterId id, std::uint64_t delta) {
  threadShard(impl()).counters[id.idx].fetch_add(delta, std::memory_order_relaxed);
  // Per-context attribution rides on top of the shard write: the process
  // total above is the source of truth, slices are pure observers, so the
  // thread-count-invariance and bit-identity of totals are untouched.
  for (ContextSlice* s = tlSlice; s; s = s->parent()) s->bump(id.idx, delta);
}

void Registry::record(HistogramId id, double value) {
  HistSlot& h = threadShard(impl()).hists[id.idx];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.store(h.sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
  if (value < h.min.load(std::memory_order_relaxed))
    h.min.store(value, std::memory_order_relaxed);
  if (value > h.max.load(std::memory_order_relaxed))
    h.max.store(value, std::memory_order_relaxed);
}

std::uint64_t Registry::threadValue(CounterId id) const {
  if (!tlShard.shard) return 0;
  return tlShard.shard->counters[id.idx].load(std::memory_order_relaxed);
}

std::uint64_t Registry::total(CounterId id) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  return im.counterTotalLocked(id.idx);
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
  {
    std::lock_guard<std::mutex> lk(im.mutex);
    for (std::uint32_t i = 0; i < im.counterNames.size(); ++i)
      snap.counters[im.counterNames[i]] = im.counterTotalLocked(i);
    for (std::uint32_t i = 0; i < im.histNames.size(); ++i) {
      HistogramSnapshot h = im.retiredHists[i];
      for (const auto& s : im.shards) {
        const auto& slot = s->hists[i];
        const std::uint64_t c = slot.count.load(std::memory_order_relaxed);
        if (c == 0) continue;
        mergeHist(h, c, slot.sum.load(std::memory_order_relaxed),
                  slot.min.load(std::memory_order_relaxed),
                  slot.max.load(std::memory_order_relaxed));
      }
      if (h.count > 0) snap.histograms[im.histNames[i]] = h;
    }
    snap.gauges = im.gauges;
  }
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mutex);
  im.retiredCounters.fill(0);
  im.retiredHists.fill(HistogramSnapshot{});
  for (const auto& s : im.shards) {
    for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
      h.max.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
    }
  }
  im.gauges.clear();
}

Registry& registry() { return Registry::instance(); }

ContextSlice::ContextSlice()
    : slots_(std::make_unique<std::array<std::atomic<std::uint64_t>, kMaxCounters>>()) {
  for (auto& s : *slots_) s.store(0, std::memory_order_relaxed);
}

std::uint64_t ContextSlice::value(CounterId id) const {
  return (*slots_)[id.idx].load(std::memory_order_relaxed);
}

std::map<std::string, std::uint64_t> ContextSlice::counters() const {
  std::map<std::string, std::uint64_t> out;
  auto& reg = Registry::instance();
  const std::size_t n = reg.counterCount();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t v = (*slots_)[i].load(std::memory_order_relaxed);
    if (v != 0) out.emplace(reg.counterName(i), v);
  }
  return out;
}

SliceScope::SliceScope(ContextSlice* slice) : prev_(tlSlice) { tlSlice = slice; }

SliceScope::~SliceScope() { tlSlice = prev_; }

}  // namespace amsyn::core::metrics
