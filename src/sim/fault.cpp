#include "sim/fault.hpp"

namespace amsyn::sim {

FaultInjector& FaultInjector::threadLocal() {
  thread_local FaultInjector tlInjector;
  return tlInjector;
}

void FaultInjector::arm(const FaultPlan& plan) {
  plan_ = plan;
  plan_.useExhaustBudget = plan.useExhaustBudget || plan.exhaustBudgetAfter > 0;
  armed_ = true;
}

void FaultInjector::disarm() {
  plan_ = FaultPlan{};
  armed_ = false;
}

namespace {
/// Consume one event from a countdown counter; true while events remain.
bool take(std::uint64_t& remaining) {
  if (remaining == 0) return false;
  --remaining;
  return true;
}
}  // namespace

bool FaultInjector::takeDcNewtonFailure() {
  return armed_ && take(plan_.failDcNewtonSolves);
}

bool FaultInjector::takeResidualPoison() {
  return armed_ && take(plan_.poisonDcResiduals);
}

bool FaultInjector::takeLuFailure() {
  return armed_ && take(plan_.failLuFactorizations);
}

bool FaultInjector::takeBudgetExhaustion() {
  if (!armed_ || !plan_.useExhaustBudget) return false;
  if (plan_.exhaustBudgetAfter > 0) {
    --plan_.exhaustBudgetAfter;
    return false;  // still within the injected allowance
  }
  return true;
}

bool consumeWork(core::EvalBudget* budget, std::uint64_t units) {
  FaultInjector& inj = FaultInjector::threadLocal();
  if (inj.armed() && inj.takeBudgetExhaustion()) return false;
  if (!budget) return true;
  return budget->consume(units);
}

}  // namespace amsyn::sim
