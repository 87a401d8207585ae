// Process-wide memoized evaluation cache for candidate designs.
//
// The synthesis loops of the paper are dominated by *redundant* evaluations:
// annealing-based sizing revisits rejected/elite points, genetic topology
// selection re-scores duplicate genomes within and across generations, and
// worst-case corner search re-evaluates the same box vertices across
// cutting-plane rounds and in the final audit (the 4x-10x CPU premium of
// section 2.2 measured in BENCH_corners.json).  This cache short-circuits
// those repeats: a lookup keyed by a canonical 128-bit candidate digest
// returns the full Performance payload (failure taxonomy included — the
// "_status" key rides along) instead of re-running the evaluator.
//
// Key design.  A candidate's identity is the digest of
//   (model tag, canonicalized netlist, process parameters, evaluator
//    options, exact sizing-vector bits)
// built with Hasher128 below.  Netlist canonicalization
// (circuit/canonical.hpp) hashes devices as a sorted multiset of electrical
// records over node *names*, so device/node declaration order does not
// matter.  Each PerformanceModel contributes its own key via
// PerformanceModel::cacheKey(); models that cannot attest a deterministic,
// self-contained identity return nullopt and are never cached.
//
// Correctness contract (proven by tests/evalcache_test.cpp differential
// suite and the hash property tests in tests/property_test.cpp): a hit is
// returned only when the stored sizing vector is bit-identical to the
// query, so cached payloads equal what a fresh evaluation would produce and
// runs with the cache on/off — at any AMSYN_THREADS — are bit-identical in
// everything but speed.  Eviction can
// therefore never change results, only the hit rate.
//
// Concurrency: the table is sharded by digest; each shard holds its own
// mutex + strict LRU list, so concurrently evaluating pool workers rarely
// contend.  Hot-path counters (core.cache.hits/misses/inserts/evictions/
// collisions) live in the metrics registry; byte/entry occupancy is surfaced
// as external counters (core.cache.bytes / core.cache.entries).
//
// Knobs (parsed only by core/envknobs.hpp):
//   AMSYN_EVAL_CACHE=0           kill switch; ContextConfig::evalCacheEnabled
//                                per context (sizing::safeEvaluate consults
//                                the cache only when its context enables it)
//   AMSYN_EVAL_CACHE_CAPACITY=N  max entries (default 65536) of the shared
//                                cache, read once when it is created; an
//                                isolated cache keeps the built-in 65536
//
// Layering: like core/evalstatus.hpp this sits below the evaluation
// libraries (amsyn_evalcache depends only on amsyn_metrics + Threads), so
// circuit, sizing, topology, and manufacture may all use it.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/evalstatus.hpp"
#include "core/performances.hpp"

namespace amsyn::core::cache {

/// 128-bit digest identifying one candidate evaluation.  Two lanes of
/// avalanche mixing: strong enough that accidental collisions are
/// negligible for cache purposes (and the exact-x compare in EvalCache
/// additionally guards the sizing-vector component, the only part that
/// varies millions of times per run).
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Digest128& a, const Digest128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Digest128& a, const Digest128& b) { return !(a == b); }
  friend bool operator<(const Digest128& a, const Digest128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Incremental 128-bit hasher.  Header-only and allocation-free so the
/// circuit library can canonicalize netlists without linking the cache.
/// Deterministic across threads, runs, and platforms with the same
/// endianness and IEEE-754 doubles (the only configuration amsyn supports).
class Hasher128 {
 public:
  Hasher128& mix(std::uint64_t v) {
    h1_ = mix64(h1_ ^ v);
    h2_ = mix64(h2_ + v * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
    return *this;
  }

  /// Canonical double bits: -0.0 hashes as +0.0 and every NaN hashes as one
  /// quiet-NaN payload, so semantically equal values share a digest.
  Hasher128& mixDouble(double v) { return mix(canonicalBits(v)); }

  Hasher128& mixString(std::string_view s) {
    mix(s.size());
    std::uint64_t chunk = 0;
    std::size_t n = 0;
    for (unsigned char c : s) {
      chunk |= static_cast<std::uint64_t>(c) << (8 * n);
      if (++n == 8) {
        mix(chunk);
        chunk = 0;
        n = 0;
      }
    }
    if (n != 0) mix(chunk);
    return *this;
  }

  Hasher128& mixDoubles(const std::vector<double>& v) {
    mix(v.size());
    for (double d : v) mixDouble(d);
    return *this;
  }

  /// Fold another digest in (e.g. a sub-model key or a canonical netlist
  /// digest becoming one component of a composite candidate key).
  Hasher128& mixDigest(const Digest128& d) { return mix(d.hi), mix(d.lo); }

  Digest128 digest() const {
    // Final avalanche with cross-lane diffusion so trailing mixes affect
    // both words.
    Digest128 d;
    d.hi = mix64(h1_ + 0x8bb84b93962eacc9ULL * h2_);
    d.lo = mix64(h2_ ^ 0x2f9be6cc79d86476ULL ^ h1_);
    return d;
  }

  static std::uint64_t canonicalBits(double v) {
    if (v != v) return 0x7ff8000000000000ULL;  // all NaNs alias
    if (v == 0.0) v = 0.0;                     // -0.0 aliases +0.0
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

 private:
  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t h1_ = 0x6a09e667f3bcc908ULL;
  std::uint64_t h2_ = 0xbb67ae8584caa73bULL;
};

/// One cached evaluation: the full Performance payload (including the
/// "_infeasible" / "_status" taxonomy keys) plus the structured status for
/// consumers that do not parse the payload.
struct CachedEval {
  Performance performance;
  EvalStatus status = EvalStatus::Ok;
};

/// Point-in-time occupancy + traffic totals (process lifetime; the metrics
/// registry carries the same numbers under core.cache.*).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t collisions = 0;  ///< digest matched but exact x differed
  std::uint64_t bypasses = 0;    ///< cheap evaluations that skipped the cache
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  ///< approximate payload bytes resident
};

class EvalCache {
 public:
  /// The process-wide cache (leaked on purpose, like the metrics registry).
  /// Production code resolves it through core::ExecutionContext (the
  /// context lint bans new direct instance() calls); the shared instance
  /// takes its capacity from AMSYN_EVAL_CACHE_CAPACITY.
  static EvalCache& instance();

  /// A private cache for context isolation (per-tenant caching in the
  /// synthesis-service scenario): its own LRU state and entry/byte gauges,
  /// the built-in capacity (2^16 entries), and no registry externals — "core.cache.entries"/
  /// "core.cache.bytes" keep naming the shared instance.  Hit/miss counter
  /// traffic still lands in the shared process counters (they are real
  /// events); per-instance occupancy is read via stats().entries/bytes.
  static std::unique_ptr<EvalCache> createIsolated();

  ~EvalCache();

  /// Max resident entries across all shards (evicting strict per-shard LRU
  /// beyond it).  0 restores the default / AMSYN_EVAL_CACHE_CAPACITY.
  void setCapacity(std::size_t maxEntries);
  std::size_t capacity() const;

  /// Look up `key`; on a hit copies the payload into `out` and returns
  /// true.  A digest match whose stored sizing vector is not bit-identical
  /// to `exactX` counts as a collision miss — this is what makes cached
  /// results provably equal to fresh ones.
  bool lookup(const Digest128& key, const std::vector<double>& exactX, CachedEval& out);

  /// Insert (or refresh) an entry.  Idempotent under races: the first
  /// payload for a key sticks, which is safe because any two writers
  /// computed it from the same deterministic evaluation.
  void insert(const Digest128& key, const std::vector<double>& exactX, CachedEval value);

  /// Tally one deliberate cache bypass (core.cache.bypasses): an evaluation
  /// cheaper than its own digest — safeEvaluate skips both the lookup and
  /// the insert for models attesting EvalCost::Cheap, and records the
  /// decision here so hit-rate math stays honest.
  void noteBypass();

  /// Drop every entry (stats/counters keep their lifetime totals).
  void clear();

  CacheStats stats() const;

  struct Impl;

 private:
  /// `shared` selects the env-derived capacity + registry externals (the
  /// process instance) vs. the built-in capacity and no externals
  /// (isolated instances).
  explicit EvalCache(bool shared);
  Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

}  // namespace amsyn::core::cache
