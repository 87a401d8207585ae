#include "core/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace amsyn::core::trace {

namespace {

/// Per-thread span state: the current nesting path plus this thread's
/// aggregated stats.  The shard mutex is effectively uncontended (locked by
/// the owner at span close and by collect()/reset() when merging).
struct TraceShard {
  std::mutex mutex;
  std::string currentPath;
  std::map<std::string, SpanStats> stats;
};

struct TraceGlobal {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceShard>> shards;      ///< live threads
  std::map<std::string, SpanStats> retired;             ///< exited threads
};

TraceGlobal& global() {
  static TraceGlobal* g = new TraceGlobal;  // leaked: reachable at thread exit
  return *g;
}

void mergeInto(std::map<std::string, SpanStats>& into,
               const std::map<std::string, SpanStats>& from) {
  for (const auto& [path, s] : from) {
    SpanStats& dst = into[path];
    dst.count += s.count;
    dst.totalNs += s.totalNs;
    dst.minNs = std::min(dst.minNs, s.minNs);
    dst.maxNs = std::max(dst.maxNs, s.maxNs);
    if (dst.counterDeltas.size() < s.counterDeltas.size())
      dst.counterDeltas.resize(s.counterDeltas.size(), 0);
    for (std::size_t i = 0; i < s.counterDeltas.size(); ++i)
      dst.counterDeltas[i] += s.counterDeltas[i];
  }
}

struct ShardHandle {
  std::shared_ptr<TraceShard> shard;
  ~ShardHandle() {
    if (!shard) return;
    TraceGlobal& g = global();
    std::lock_guard<std::mutex> lk(g.mutex);
    mergeInto(g.retired, shard->stats);
    g.shards.erase(std::remove(g.shards.begin(), g.shards.end(), shard), g.shards.end());
  }
};
thread_local ShardHandle tlTrace;

TraceShard& threadShard() {
  if (!tlTrace.shard) {
    auto s = std::make_shared<TraceShard>();
    TraceGlobal& g = global();
    {
      std::lock_guard<std::mutex> lk(g.mutex);
      g.shards.push_back(s);
    }
    tlTrace.shard = std::move(s);
  }
  return *tlTrace.shard;
}

}  // namespace

std::uint64_t monotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Span::Span(const char* name) {
  TraceShard& shard = threadShard();
  parentPath_ = shard.currentPath;
  path_ = parentPath_.empty() ? std::string(name) : parentPath_ + "/" + name;
  shard.currentPath = path_;
  const std::size_t n = metrics::registry().counterCount();
  before_.resize(n);
  metrics::registry().threadCounterSnapshot(before_.data(), n);
  startNs_ = monotonicNowNs();  // last: exclude our own setup from the span
}

Span::~Span() {
  const std::uint64_t durNs = monotonicNowNs() - startNs_;
  // Counters registered *during* the span are snapshotted as zero at open.
  auto& reg = metrics::registry();
  const std::size_t n = reg.counterCount();
  std::vector<std::uint64_t> after(n);
  reg.threadCounterSnapshot(after.data(), n);

  TraceShard& shard = threadShard();
  {
    std::lock_guard<std::mutex> lk(shard.mutex);
    SpanStats& s = shard.stats[path_];
    s.count += 1;
    s.totalNs += durNs;
    s.minNs = std::min(s.minNs, durNs);
    s.maxNs = std::max(s.maxNs, durNs);
    if (s.counterDeltas.size() < n) s.counterDeltas.resize(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t beforeVal = i < before_.size() ? before_[i] : 0;
      // A thread's counters only grow (a shard made mid-span opened at zero),
      // so `after` never trails the snapshot; the test only guards the wrap.
      if (after[i] > beforeVal) s.counterDeltas[i] += after[i] - beforeVal;
    }
    shard.currentPath = parentPath_;
  }
}

std::map<std::string, SpanStats> collect() {
  TraceGlobal& g = global();
  std::map<std::string, SpanStats> out;
  std::lock_guard<std::mutex> lk(g.mutex);
  mergeInto(out, g.retired);
  for (const auto& shard : g.shards) {
    std::lock_guard<std::mutex> slk(shard->mutex);
    mergeInto(out, shard->stats);
  }
  return out;
}

void reset() {
  TraceGlobal& g = global();
  std::lock_guard<std::mutex> lk(g.mutex);
  g.retired.clear();
  for (const auto& shard : g.shards) {
    std::lock_guard<std::mutex> slk(shard->mutex);
    shard->stats.clear();
  }
}

}  // namespace amsyn::core::trace
