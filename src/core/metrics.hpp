// Process-wide metrics registry: the named counters behind every
// observability number in amsyn (LU factorization traffic, annealing move
// totals, maze-router expansions, failure-reason tallies).
//
// Design: counters are sharded per thread.  Registration (name -> id) is the
// cold path and takes a mutex; the hot path — add() on an id — touches only
// the calling thread's shard with relaxed atomics, so concurrently evaluating pool workers never contend on a
// counter cacheline.  Aggregation walks every live shard plus the retired
// totals of exited threads, which is how worker-thread increments reach the
// caller: totals are correct and thread-count-invariant because integer sums
// are order-free (this is the fix for the PR-1 thread-local LU counters,
// which were silently dropped whenever an analysis ran on a pool thread).
//
// Layering: this library sits at the very bottom (Threads only), below
// amsyn_sim and amsyn_numeric, mirroring core/evalstatus.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace amsyn::core::metrics {

/// Fixed shard capacity: a shard is a flat array of atomics, so ids are
/// stable for the process lifetime and slots are never reallocated under a
/// concurrent reader.  Exceeding it is a registration error (cold path)
/// that names the offending counter.
inline constexpr std::size_t kMaxCounters = 320;

struct CounterId {
  std::uint32_t idx = 0;
};

/// Point-in-time aggregate over all shards and retired threads.  Keys are
/// counter names; the map keeps the output order deterministic.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
};

class Registry {
 public:
  /// The process-wide registry.  Never destroyed (leaked on purpose), so
  /// thread-exit hooks and static destructors can always reach it.
  static Registry& instance();

  /// Register (or look up) a counter by name.  Idempotent; cold path.
  CounterId counter(const std::string& name);

  /// Hot path (lock-free: calling thread's shard, relaxed atomics).
  void add(CounterId id, std::uint64_t delta = 1);

  /// Aggregate of one counter over every shard (live + retired), by name:
  /// the counter's total if registered, else 0.
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

// Convenience free function for call sites.
inline void add(CounterId id, std::uint64_t delta = 1) {
  registry().add(id, delta);
}

}  // namespace amsyn::core::metrics
