// Scoped execution contexts: the explicit object behind the config a run
// reads besides its inputs.  A single-flow CLI run never has to know
// contexts exist; a batch or a test that needs a different config installs
// one.  Both are served by the same mechanism:
//
//   * The *ambient* context is a lazily-created, process-lifetime default
//     whose config snapshot comes from the AMSYN_* environment.  Code that
//     never installs a context resolves everything through it.
//   * An *explicit* context carries its own config.  Installing it with
//     ContextScope makes ExecutionContext::current() — and therefore every
//     subsystem that resolves through it — see that context on the
//     installing thread.  parallelFor propagates the submitting thread's
//     context into pool tasks, so a context follows its job onto whichever
//     thread runs it.
//
// A context is a config snapshot and nothing more.  The metrics registry is
// process-shared (core/metrics.hpp); read a job's counters as the delta of
// Registry::total around it.  Consumers read modes from the current
// context's config, never from a shared object, so one job's config can
// never leak into a concurrent or later job.
//
// Layering: amsyn_context is a leaf beside amsyn_metrics, below
// everything else (parallel, sim, sizing, topology, manufacture, core).  It
// must not depend on the thread pool, which is why propagation lives in
// parallel.hpp, not here.
#pragma once

#include <cstddef>
#include <cstdint>

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
  /// An explicit context.  Contexts are independent of each other and of
  /// the ambient context.
  explicit ExecutionContext(ContextConfig cfg = ContextConfig::fromEnv(),
                            ContextIsolation isolation = {});
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// The process-default context: config snapshotted from the environment
  /// on first use.  Created lazily and leaked, like the registry.
  static ExecutionContext& ambient();

  /// The calling thread's installed context (innermost ContextScope), or
  /// ambient() when none is installed.
  static ExecutionContext& current();

  const ContextConfig& config() const { return config_; }

 private:
  ContextConfig config_;
};

/// Installs a context as the calling thread's current one for the scope's
/// lifetime.  Nesting restores the previous context on exit; the innermost
/// scope wins.
class ContextScope {
 public:
  explicit ContextScope(ExecutionContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  ExecutionContext* prev_;
};

}  // namespace amsyn::core
