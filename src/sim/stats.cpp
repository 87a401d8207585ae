#include "sim/stats.hpp"

#include <array>
#include <string>

#include "core/metrics.hpp"

namespace amsyn::sim {

namespace {

namespace metrics = core::metrics;

struct LuCounters {
  metrics::CounterId factorizations;
  metrics::CounterId reuses;
};

const LuCounters& luCounters() {
  static const LuCounters ids{metrics::registry().counter("sim.lu_factorizations"),
                              metrics::registry().counter("sim.lu_reuses")};
  return ids;
}

constexpr std::size_t kStrategyCount = 3;

/// First-class registry ids for the failure taxonomy, registered as one
/// block on first use (lazy, so registration cannot race static init
/// order; eager within the block, so the report counter key-set never
/// depends on which reasons actually fired).
struct FailureCounters {
  std::array<metrics::CounterId, core::kEvalStatusCount> byReason{};
  std::array<metrics::CounterId, kStrategyCount> strategies{};
};

const FailureCounters& failureCounters() {
  static const FailureCounters ids = [] {
    auto& reg = metrics::registry();
    FailureCounters c;
    for (std::size_t i = 1; i < core::kEvalStatusCount; ++i) {
      const auto reason = static_cast<core::EvalStatus>(i);
      c.byReason[i] =
          reg.counter(std::string("sim.fail.") + core::evalStatusName(reason));
    }
    c.strategies[static_cast<std::size_t>(DcStrategy::Newton)] =
        reg.counter("sim.strategy.newton");
    c.strategies[static_cast<std::size_t>(DcStrategy::Gmin)] =
        reg.counter("sim.strategy.gmin");
    c.strategies[static_cast<std::size_t>(DcStrategy::Source)] =
        reg.counter("sim.strategy.source");
    return c;
  }();
  return ids;
}

}  // namespace

void recordLuFactorization() { metrics::add(luCounters().factorizations); }

void recordLuReuse() { metrics::add(luCounters().reuses); }

void recordDcStrategy(DcStrategy s) {
  metrics::add(failureCounters().strategies[static_cast<std::size_t>(s)]);
}

void recordEvalFailure(core::EvalStatus reason) {
  if (reason == core::EvalStatus::Ok || reason == core::EvalStatus::kCount) return;
  metrics::add(failureCounters().byReason[static_cast<std::size_t>(reason)]);
}

}  // namespace amsyn::sim
