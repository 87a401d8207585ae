#include "core/context.hpp"

#include <string>

#include "core/envknobs.hpp"

namespace amsyn::core {

namespace {

/// The calling thread's installed context (innermost ContextScope).
thread_local ExecutionContext* tlCurrent = nullptr;

}  // namespace

ContextConfig ContextConfig::fromEnv() {
  ContextConfig cfg;
  cfg.threads = envknobs::threads();
  cfg.jobDeadlineMs = envknobs::jobDeadlineMs();
  cfg.topologySpace = envknobs::topologySpaceIndex() == 1 ? TopologySpace::Generated
                                                          : TopologySpace::Legacy;
  return cfg;
}

ExecutionContext::ExecutionContext(ContextConfig cfg, ContextIsolation /*inert*/)
    : ExecutionContext(std::move(cfg), /*parent=*/nullptr, /*isAmbient=*/false) {}

ExecutionContext::ExecutionContext(ContextConfig cfg, ExecutionContext* parent,
                                   bool isAmbient)
    : config_(std::move(cfg)) {
  // Every context except the ambient one records a slice; the ambient hot
  // path stays a thread-local null check in Registry::add.
  if (!isAmbient) {
    slice_ = std::make_unique<metrics::ContextSlice>();
    slice_->setParent(parent ? parent->metricsSlice() : nullptr);
  }
}

ExecutionContext::~ExecutionContext() = default;

ExecutionContext& ExecutionContext::ambient() {
  // Leaked, like the registry: reachable from thread-exit hooks and static
  // destructors.  Construction is thread-safe (magic static) and snapshots
  // the environment exactly once per process.
  static ExecutionContext* ctx = new ExecutionContext(
      ContextConfig::fromEnv(), /*parent=*/nullptr, /*isAmbient=*/true);
  return *ctx;
}

ExecutionContext& ExecutionContext::current() {
  return tlCurrent ? *tlCurrent : ambient();
}

ExecutionContext* ExecutionContext::scoped() { return tlCurrent; }

std::unique_ptr<ExecutionContext> ExecutionContext::makeChild(
    std::optional<ContextConfig> cfg) {
  return std::unique_ptr<ExecutionContext>(
      new ExecutionContext(cfg ? std::move(*cfg) : config_, /*parent=*/this,
                           /*isAmbient=*/false));
}

std::map<std::string, std::uint64_t> ExecutionContext::sliceCounters() const {
  return slice_ ? slice_->counters() : std::map<std::string, std::uint64_t>{};
}

ContextScope::ContextScope(ExecutionContext& ctx)
    : prev_(tlCurrent), sliceScope_(ctx.metricsSlice()) {
  tlCurrent = &ctx;
}

ContextScope::~ContextScope() { tlCurrent = prev_; }

}  // namespace amsyn::core
