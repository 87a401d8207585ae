// Scoped execution contexts: the explicit object behind the state a run
// needs besides its inputs — the run config and metrics attribution.  A
// single-flow CLI run never has to know contexts exist; a batch or a test
// that needs its jobs kept apart installs one per job.  Both are served by
// the same mechanism:
//
//   * The *ambient* context is a lazily-created, process-lifetime default
//     whose config snapshot comes from the AMSYN_* environment.  Code that
//     never installs a context resolves everything through it.
//   * An *explicit* context carries its own config and metrics slice.
//     Installing it with ContextScope makes ExecutionContext::current() —
//     and therefore every subsystem that resolves through it — see that
//     context on the installing thread.  parallelFor propagates the
//     submitting thread's context into pool tasks, so a context follows its
//     job onto whichever thread runs it.
//
// What stays process-shared on purpose: the metrics registry storage
// (slices are additive observers, never the source of truth — process
// totals stay thread-count-invariant and bit-identical with or without
// slicing).  What is per-context: the config snapshot (every field) and the
// metrics slice.  Consumers read modes from the current context's config,
// never from a shared object, so one job's config can never leak into a
// concurrent or later job.
//
// Layering: amsyn_context sits directly above amsyn_metrics and below
// everything else (parallel, sim, sizing, topology, manufacture, core).  It
// must not depend on the thread pool, which is why propagation lives in
// parallel.hpp, not here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/metrics.hpp"

namespace amsyn::core {

/// Candidate space the topology-select stage ranks (topology::TopologySpace
/// is an alias): the two legacy cells, or the whole generated functional-
/// block composition space (sizing/blocks.hpp).
enum class TopologySpace : std::uint8_t { Legacy, Generated };

/// One immutable snapshot of every AMSYN_* tuning knob, and the only way to
/// configure a run.  fromEnv() is the only production reader of those
/// variables (via core/envknobs.hpp); everything downstream reads the
/// snapshot of the context it runs under (ExecutionContext::current()
/// .config()), never a mode stored in a shared object.  So different jobs
/// can run under different configs without touching the environment or
/// each other.
struct ContextConfig {
  /// AMSYN_THREADS, as snapshotted (0 = unset).  Inert: nothing in src/
  /// reads it; it stays only because perfbench/flow_bench.cpp still sets
  /// it.  The pool width comes from AMSYN_THREADS through
  /// ThreadPool::global(), or from a ScopedThreadPool.
  std::size_t threads = 0;
  /// AMSYN_JOB_DEADLINE_MS: per-flow wall-clock deadline in ms (0 = none).
  /// FlowEngine checks it at every stage boundary and threads it into the
  /// verification measurements, so a livelocked evaluation stops at the
  /// next strided cancel point.  Expiry is *terminal* for the job:
  /// the flow returns with failureStatus deadline_expired, skipping
  /// remaining redesigns.  A deadline trips at a machine-dependent point by
  /// nature — leave it 0 where bit-reproducible batches matter.
  std::uint64_t jobDeadlineMs = 0;
  /// AMSYN_TOPOLOGY_SPACE: the space a flow ranks unless FlowOptions pins
  /// one.
  TopologySpace topologySpace = TopologySpace::Legacy;

  static ContextConfig fromEnv();
};

/// Inert: no handle is private to a context any more.  Kept, with both
/// fields, only so perfbench/flow_bench.cpp's `ContextIsolation{true, true}`
/// still compiles; the constructor ignores it.
struct ContextIsolation {
  bool evalCache = false;
  bool surrogate = false;
};

class ExecutionContext {
 public:
  /// An explicit context.  Root contexts are independent of each other and
  /// of the ambient context: their metric slices have no parent.
  explicit ExecutionContext(ContextConfig cfg = ContextConfig::fromEnv(),
                            ContextIsolation isolation = {});
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The process-default context: config snapshotted from the environment
  /// on first use, no metrics slice (so un-scoped code pays one
  /// thread-local null check and nothing else).
  /// Created lazily and leaked, like the registry.
  static ExecutionContext& ambient();

  /// The calling thread's installed context (innermost ContextScope), or
  /// ambient() when none is installed.
  static ExecutionContext& current();

  /// A child for one job within this context: the parent's config unless
  /// `cfg` overrides it (the one way to run a job with a different config
  /// than its parent's), and a metrics slice chained under the parent's —
  /// a delta recorded in the job also shows up in the owning context's
  /// slice.  The child must not outlive its parent.
  std::unique_ptr<ExecutionContext> makeChild(
      std::optional<ContextConfig> cfg = std::nullopt);

  const ContextConfig& config() const { return config_; }

  /// This context's metric slice (nullptr for the ambient context).
  metrics::ContextSlice* metricsSlice() { return slice_.get(); }
  /// Name -> delta for counters recorded under this context (empty map for
  /// the ambient context, which deliberately records no slice).
  std::map<std::string, std::uint64_t> sliceCounters() const;

 private:
  ExecutionContext(ContextConfig cfg, ExecutionContext* parent, bool isAmbient);

  ContextConfig config_;
  std::unique_ptr<metrics::ContextSlice> slice_;
};

/// Installs a context as the calling thread's current one (and its metrics
/// slice as the thread's active slice) for the scope's lifetime.  Nesting
/// restores the previous context on exit; the innermost scope wins.
class ContextScope {
 public:
  explicit ContextScope(ExecutionContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ExecutionContext* prev_;
  metrics::SliceScope sliceScope_;
};

}  // namespace amsyn::core
