#include "core/context.hpp"

#include <utility>

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
    : config_(std::move(cfg)) {}

ExecutionContext& ExecutionContext::ambient() {
  // Leaked, like the registry: reachable from thread-exit hooks and static
  // destructors.  Construction is thread-safe (magic static) and snapshots
  // the environment exactly once per process.
  static ExecutionContext* ctx = new ExecutionContext(ContextConfig::fromEnv());
  return *ctx;
}

ExecutionContext& ExecutionContext::current() {
  return tlCurrent ? *tlCurrent : ambient();
}

ContextScope::ContextScope(ExecutionContext& ctx) : prev_(tlCurrent) { tlCurrent = &ctx; }

ContextScope::~ContextScope() { tlCurrent = prev_; }

}  // namespace amsyn::core
