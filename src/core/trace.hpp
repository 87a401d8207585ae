// Hierarchical trace spans: AMSYN_SPAN("corner_search") times a scope with
// the monotonic clock, nests by thread (child paths are "parent/child"), and
// records the calling thread's counter deltas over the scope — so a span's
// aggregate answers "how long did this phase take, over how many calls, and
// how much evaluation traffic (LU factorizations, cost evals, ...) did it
// burn".  This is the instrument behind the paper's 4x-10x corner-search
// CPU-overhead claim [31]: the corner-search and nominal-sizing phases carry
// spans, and the run report divides their wall times.
//
// Spans aggregate per (thread, path) into sharded stats merged on demand,
// like core/metrics.hpp counters: opening/closing a span touches only the
// calling thread's shard.  Wall times are genuinely nondeterministic, so
// only span *counts* and *counter deltas* are thread-count-invariant.
//
// Compile-time gate: building with -DAMSYN_TRACE_ENABLED=0 (CMake option
// AMSYN_TRACE=OFF) turns AMSYN_SPAN into a no-op statement with zero code —
// tests/trace_noop_test.cpp proves the disabled form is constexpr-safe.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.hpp"

namespace amsyn::core::trace {

struct SpanStats {
  std::uint64_t count = 0;    ///< completed spans at this path
  std::uint64_t totalNs = 0;  ///< summed wall time (monotonic clock)
  std::uint64_t minNs = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t maxNs = 0;
  /// Summed per-span deltas of the owning thread's counters, indexed by
  /// metrics::CounterId.  Sized lazily to the registry's counter count.
  std::vector<std::uint64_t> counterDeltas;
};

/// RAII span.  Use through AMSYN_SPAN so the whole mechanism can be compiled
/// out; construct directly only in code that requires tracing to exist.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string path_;
  std::string parentPath_;
  std::uint64_t startNs_ = 0;
  std::vector<std::uint64_t> before_;  ///< thread counter snapshot at open
};

/// Merge span statistics across all threads, keyed by full path.  Spans
/// still open are not included (stats land at close).
std::map<std::string, SpanStats> collect();

/// Drop all recorded span statistics (quiescent callers only).
void reset();

/// Nanoseconds on the monotonic clock (exposed for tests).
std::uint64_t monotonicNowNs();

}  // namespace amsyn::core::trace

#ifndef AMSYN_TRACE_ENABLED
#define AMSYN_TRACE_ENABLED 1
#endif

#define AMSYN_SPAN_CAT2(a, b) a##b
#define AMSYN_SPAN_CAT(a, b) AMSYN_SPAN_CAT2(a, b)

#if AMSYN_TRACE_ENABLED
#define AMSYN_SPAN(name) \
  ::amsyn::core::trace::Span AMSYN_SPAN_CAT(amsynSpan_, __LINE__)(name)
#else
#define AMSYN_SPAN(name) ((void)0)
#endif
