// Process-wide metrics registry: named counters, gauges, and histograms
// behind every observability number in amsyn (LU factorization traffic,
// annealing move totals, maze-router expansions, failure-reason tallies).
//
// Design: counters and histograms are sharded per thread.  Registration
// (name -> id) is the cold path and takes a mutex; the hot path — add() /
// record() on an id — touches only the calling thread's shard with relaxed
// atomics, so concurrently evaluating pool workers never contend on a
// counter cacheline.  Aggregation walks every live shard plus the retired
// totals of exited threads, which is how worker-thread increments reach the
// caller: totals are correct and thread-count-invariant because integer sums
// are order-free (this is the fix for the PR-1 thread-local LU counters,
// which were silently dropped whenever an analysis ran on a pool thread).
//
// Layering: this library sits at the very bottom (Threads only), below
// amsyn_sim and amsyn_numeric, mirroring core/evalstatus.hpp.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace amsyn::core::metrics {

/// Fixed shard capacities: a shard is a flat array of atomics, so ids are
/// stable for the process lifetime and slots are never reallocated under a
/// concurrent reader.  Exceeding these is a registration error (cold path)
/// that names the offending metric.  Headroom is deliberate: per-context
/// slices (ContextSlice) mirror the counter array, so growing it later
/// means touching every slice too.
inline constexpr std::size_t kMaxCounters = 320;
inline constexpr std::size_t kMaxHistograms = 64;

struct CounterId {
  std::uint32_t idx = 0;
};
struct HistogramId {
  std::uint32_t idx = 0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

/// Point-in-time aggregate over all shards, retired threads, and external
/// (callback-backed) counters.  Keys are metric names; maps keep the output
/// order deterministic.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry {
 public:
  /// The process-wide registry.  Never destroyed (leaked on purpose), so
  /// thread-exit hooks and static destructors can always reach it.
  static Registry& instance();

  /// Register (or look up) a counter by name.  Idempotent; cold path.
  CounterId counter(const std::string& name);
  HistogramId histogram(const std::string& name);

  /// Register a read-only external counter (e.g. the shared eval cache's
  /// entry count) surfaced through snapshots under `name`.  Idempotent by name;
  /// the reader must be callable from any thread.  External counters are the
  /// registry's bridge for stats whose storage lives elsewhere, and they are
  /// not zeroed by reset().
  void registerExternal(const std::string& name, std::function<std::uint64_t()> reader);

  /// Gauges are last-write-wins process globals (set rarely; mutex).
  void setGauge(const std::string& name, double value);

  // --- hot path (lock-free: calling thread's shard, relaxed atomics) ---
  void add(CounterId id, std::uint64_t delta = 1);
  void record(HistogramId id, double value);

  /// Value accumulated by the *calling thread only* since the last reset().
  std::uint64_t threadValue(CounterId id) const;

  /// Aggregate of one counter over every shard (live + retired).  Does not
  /// consult external counters; use total(name) for those.
  std::uint64_t total(CounterId id) const;
  /// Aggregate by name: native counter if registered, else external reader,
  /// else 0.
  std::uint64_t total(const std::string& name) const;

  /// Copy the calling thread's first `count` counter slots into `out`
  /// (trace spans snapshot these to compute per-span metric deltas).
  void threadCounterSnapshot(std::uint64_t* out, std::size_t count) const;
  /// Number of registered native counters (ids below this are valid).
  /// Lock-free, so every trace span reads it at open and close.
  std::size_t counterCount() const;
  /// Name of a native counter id (empty when out of range).
  std::string counterName(std::uint32_t idx) const;

  Snapshot snapshot() const;

  /// Zero every native counter/histogram shard (live and retired) and clear
  /// gauges.  External counters keep whatever their source holds.  Callers
  /// must be quiescent: concurrent add() during reset() is not torn (slots
  /// are atomics) but increments may land on either side of the zeroing.
  void reset();

  /// Implementation state; the type is public only so the per-thread shard
  /// handle (a file-local thread_local in metrics.cpp) can hold a pointer
  /// back to it for its thread-exit retirement hook.
  struct Impl;

 private:
  Registry() = default;
  Impl& impl() const;
};

/// The process-wide registry.  The sanctioned spelling for production code:
/// tools/context_lint.cmake bans direct Registry::instance() calls outside
/// this header/metrics.cpp so singleton reach-around stays greppable at one
/// symbol.
Registry& registry();

// Convenience free functions for call sites.
inline void add(CounterId id, std::uint64_t delta = 1) {
  registry().add(id, delta);
}
inline void record(HistogramId id, double value) {
  registry().record(id, value);
}

/// Per-context counter deltas, layered on (not replacing) the sharded
/// process registry.  While a slice is installed on a thread (SliceScope,
/// normally via core::ContextScope), every Registry::add on that thread
/// additionally lands in the slice and each of its chained parents — so a
/// job context's slice and its parent tenant's slice both see the delta
/// while the process totals stay exactly what they were without slicing.
///
/// Counters only: histogram shard slots are single-writer-per-thread by
/// construction, and a slice is written from every thread its context runs
/// on, so histograms are deliberately out of scope for slicing.
class ContextSlice {
 public:
  ContextSlice();

  /// Chain to an enclosing context's slice (nullptr = root).  Set once at
  /// construction time of the owning context, before any recording.
  void setParent(ContextSlice* parent) { parent_ = parent; }
  ContextSlice* parent() const { return parent_; }

  /// Accumulated delta for one counter id.
  std::uint64_t value(CounterId id) const;

  /// Name -> delta for every registered counter this slice saw (zero-delta
  /// counters are omitted).  Deterministic order (map).
  std::map<std::string, std::uint64_t> counters() const;

  /// Hot-path hook used by Registry::add; relaxed, multi-writer.
  void bump(std::uint32_t idx, std::uint64_t delta) {
    (*slots_)[idx].fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<std::array<std::atomic<std::uint64_t>, kMaxCounters>> slots_;
  ContextSlice* parent_ = nullptr;
};

/// Installs `slice` (possibly nullptr) as the calling thread's active slice
/// for the scope's lifetime; restores the previous one on exit.  Production
/// code uses core::ContextScope, which couples this to the thread's current
/// ExecutionContext.
class SliceScope {
 public:
  explicit SliceScope(ContextSlice* slice);
  ~SliceScope();
  SliceScope(const SliceScope&) = delete;
  SliceScope& operator=(const SliceScope&) = delete;

 private:
  ContextSlice* prev_;
};

}  // namespace amsyn::core::metrics
