#include "core/evalcache.hpp"

#include <atomic>
#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/envknobs.hpp"
#include "core/metrics.hpp"

namespace amsyn::core::cache {

namespace {

struct DigestHash {
  std::size_t operator()(const Digest128& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ULL));
  }
};

bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Approximate resident bytes of one entry: container overheads are charged
/// at a flat rate; the performance payload at one flat (name, value)
/// element per performance plus each name's length (small-string storage
/// counts the same — this is an observability estimate, not an allocator
/// audit).
std::size_t entryBytes(const std::vector<double>& x, const CachedEval& v) {
  std::size_t bytes = sizeof(Digest128) + 64;  // key + node/list overhead
  bytes += x.size() * sizeof(double);
  bytes += v.performance.size() * sizeof(Performance::value_type);
  for (const auto& entry : v.performance) bytes += entry.first.size();
  return bytes;
}

constexpr std::size_t kBuiltinCapacity = std::size_t{1} << 16;

}  // namespace

struct EvalCache::Impl {
  static constexpr std::size_t kShards = 16;

  struct Entry {
    std::vector<double> x;
    CachedEval value;
    std::list<Digest128>::iterator lruIt;
    std::size_t bytes = 0;
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<Digest128, Entry, DigestHash> map;
    /// Strict LRU, front = most recently used.  Deterministic for a serial
    /// access sequence; under concurrency the interleaving (and therefore
    /// which entry is evicted) may vary, which can only vary the *hit rate*:
    /// payloads equal fresh evaluations, so results never depend on it.
    std::list<Digest128> lru;
  };

  std::atomic<std::size_t> capacity{kBuiltinCapacity};
  /// What setCapacity(0) restores: the env-derived capacity for the shared
  /// instance, the built-in default for isolated ones.
  std::size_t defaultCapacity = kBuiltinCapacity;
  std::atomic<std::uint64_t> entries{0};
  std::atomic<std::uint64_t> bytes{0};
  Shard shards[kShards];

  metrics::CounterId cHits, cMisses, cInserts, cEvictions, cCollisions, cBypasses;

  explicit Impl(bool shared) {
    if (shared) {
      // The process-wide instance takes its capacity from the environment —
      // the one parser of AMSYN_EVAL_CACHE_CAPACITY.  Isolated instances
      // keep the built-in capacity.
      defaultCapacity = envknobs::evalCacheCapacity();
      capacity.store(defaultCapacity, std::memory_order_relaxed);
    }
    auto& reg = metrics::registry();
    // Registered eagerly (not lazily at first lookup) so the counter *keys*
    // in run-report snapshots are identical with the cache enabled and
    // disabled — the differential tests compare report schemas across both.
    cHits = reg.counter("core.cache.hits");
    cMisses = reg.counter("core.cache.misses");
    cInserts = reg.counter("core.cache.inserts");
    cEvictions = reg.counter("core.cache.evictions");
    cCollisions = reg.counter("core.cache.collisions");
    cBypasses = reg.counter("core.cache.bypasses");
    if (shared) {
      // Occupancy gauges name the shared instance only: registerExternal
      // replaces readers by name, so an isolated instance registering here
      // would silently hijack the process-wide report fields.
      reg.registerExternal("core.cache.entries",
                           [this] { return entries.load(std::memory_order_relaxed); });
      reg.registerExternal("core.cache.bytes",
                           [this] { return bytes.load(std::memory_order_relaxed); });
    }
  }

  Shard& shardFor(const Digest128& key) { return shards[key.hi % kShards]; }

  std::size_t perShardCapacity() const {
    const std::size_t cap = capacity.load(std::memory_order_relaxed);
    return cap == 0 ? 1 : std::max<std::size_t>(1, cap / kShards);
  }
};

EvalCache::EvalCache(bool shared) : impl_(std::make_unique<Impl>(shared)) {}

EvalCache::~EvalCache() = default;

EvalCache& EvalCache::instance() {
  static EvalCache* leaked = new EvalCache(/*shared=*/true);
  return *leaked;
}

std::unique_ptr<EvalCache> EvalCache::createIsolated() {
  return std::unique_ptr<EvalCache>(new EvalCache(/*shared=*/false));
}

void EvalCache::setCapacity(std::size_t maxEntries) {
  impl().capacity.store(maxEntries == 0 ? impl().defaultCapacity : maxEntries,
                        std::memory_order_relaxed);
}
std::size_t EvalCache::capacity() const {
  return impl().capacity.load(std::memory_order_relaxed);
}

bool EvalCache::lookup(const Digest128& key, const std::vector<double>& exactX,
                       CachedEval& out) {
  Impl& im = impl();
  Impl::Shard& shard = im.shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    metrics::add(im.cMisses);
    return false;
  }
  // A digest match with a different sizing vector is a hash collision;
  // returning it would break the bit-identity proof, so miss.
  if (!bitIdentical(it->second.x, exactX)) {
    metrics::add(im.cCollisions);
    metrics::add(im.cMisses);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lruIt);
  out = it->second.value;
  metrics::add(im.cHits);
  return true;
}

void EvalCache::insert(const Digest128& key, const std::vector<double>& exactX,
                       CachedEval value) {
  Impl& im = impl();
  Impl::Shard& shard = im.shardFor(key);
  const std::size_t cap = im.perShardCapacity();
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    // First payload sticks (any two writers computed the same value from
    // the same deterministic evaluation); just refresh recency.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lruIt);
    return;
  }
  shard.lru.push_front(key);
  Impl::Entry entry;
  entry.x = exactX;
  entry.bytes = entryBytes(exactX, value);
  entry.value = std::move(value);
  entry.lruIt = shard.lru.begin();
  im.bytes.fetch_add(entry.bytes, std::memory_order_relaxed);
  im.entries.fetch_add(1, std::memory_order_relaxed);
  shard.map.emplace(key, std::move(entry));
  metrics::add(im.cInserts);
  while (shard.map.size() > cap) {
    const Digest128 victim = shard.lru.back();
    auto vit = shard.map.find(victim);
    im.bytes.fetch_sub(vit->second.bytes, std::memory_order_relaxed);
    im.entries.fetch_sub(1, std::memory_order_relaxed);
    shard.map.erase(vit);
    shard.lru.pop_back();
    metrics::add(im.cEvictions);
  }
}

void EvalCache::noteBypass() { metrics::add(impl().cBypasses); }

void EvalCache::clear() {
  Impl& im = impl();
  for (auto& shard : im.shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [key, entry] : shard.map) {
      im.bytes.fetch_sub(entry.bytes, std::memory_order_relaxed);
      im.entries.fetch_sub(1, std::memory_order_relaxed);
    }
    shard.map.clear();
    shard.lru.clear();
  }
}

CacheStats EvalCache::stats() const {
  Impl& im = impl();
  auto& reg = metrics::registry();
  CacheStats s;
  s.hits = reg.total(im.cHits);
  s.misses = reg.total(im.cMisses);
  s.inserts = reg.total(im.cInserts);
  s.evictions = reg.total(im.cEvictions);
  s.collisions = reg.total(im.cCollisions);
  s.bypasses = reg.total(im.cBypasses);
  s.entries = im.entries.load(std::memory_order_relaxed);
  s.bytes = im.bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace amsyn::core::cache
