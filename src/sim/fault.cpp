#include "sim/fault.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "core/context.hpp"
#include "numeric/rng.hpp"

namespace amsyn::sim {

// The context-side schedule array must fit every site.
static_assert(kFaultSiteCount <= core::FaultScheduleState::kMaxSites,
              "FaultScheduleState::kMaxSites too small for FaultSite");

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
  // The batch draw runs first so its occurrence counter advances the same
  // way whether or not a thread-local plan happens to be armed too.
  const bool batch = takeBatchFault(FaultSite::DcNewton);
  return batch || (armed_ && take(plan_.failDcNewtonSolves));
}

bool FaultInjector::takeResidualPoison() {
  const bool batch = takeBatchFault(FaultSite::DcResidual);
  return batch || (armed_ && take(plan_.poisonDcResiduals));
}

bool FaultInjector::takeLuFailure() {
  const bool batch = takeBatchFault(FaultSite::LuFactor);
  return batch || (armed_ && take(plan_.failLuFactorizations));
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
  if (takeBatchFault(FaultSite::BudgetCharge)) return false;
  if (!budget) return true;
  return budget->consume(units);
}

// ---------------------------------------------------------------------------
// Batch-level deterministic fault schedule

namespace {

/// The calling thread's bound job: index + per-site occurrence counters.
/// Lives on the heap, owned by the innermost BatchFaultScope, so nesting
/// (a job stolen by a thread that is waiting inside another job) restores
/// the outer job exactly.
struct JobFaultState {
  std::size_t jobIndex = 0;
  std::array<std::uint64_t, kFaultSiteCount> occurrences{};
};

JobFaultState*& tlJobState() {
  thread_local JobFaultState* state = nullptr;
  return state;
}

bool& tlSolverWindow() {
  thread_local bool open = false;
  return open;
}

constexpr bool isSolverSite(FaultSite s) {
  switch (s) {
    case FaultSite::DcNewton:
    case FaultSite::DcResidual:
    case FaultSite::LuFactor:
    case FaultSite::BudgetCharge:
      return true;
    default:
      return false;
  }
}

}  // namespace

void armBatchFaults(const BatchFaultPlan& plan) {
  // Writes land on the *current* context: ambient for legacy callers, the
  // arming tenant's context in scoped code.  Plan fields are published
  // before the release-store on `armed`, matching the acquire-load in
  // takeBatchFault.
  core::FaultScheduleState& fs = core::ExecutionContext::current().faultSchedule();
  fs.seed = plan.seed;
  std::copy(plan.rates, plan.rates + kFaultSiteCount, fs.rates.begin());
  fs.armed.store(true, std::memory_order_release);
}

void disarmBatchFaults() {
  core::FaultScheduleState& fs = core::ExecutionContext::current().faultSchedule();
  fs.armed.store(false, std::memory_order_release);
  fs.seed = 1;
  fs.rates.fill(0.0);
}

bool batchFaultsArmed() {
  return core::ExecutionContext::current().armedFaultSchedule() != nullptr;
}

BatchFaultScope::BatchFaultScope(std::size_t jobIndex) {
  saved_ = tlJobState();
  tlJobState() = new JobFaultState{jobIndex, {}};
}

BatchFaultScope::~BatchFaultScope() {
  delete tlJobState();
  tlJobState() = static_cast<JobFaultState*>(saved_);
}

SolverFaultWindow::SolverFaultWindow() : saved_(tlSolverWindow()) {
  tlSolverWindow() = true;
}

SolverFaultWindow::~SolverFaultWindow() { tlSolverWindow() = saved_; }

bool takeBatchFault(FaultSite site) {
  // Resolve the governing schedule through the current context chain: a job
  // context inherits its tenant's (or the ambient) armed plan, and sibling
  // contexts never observe each other's.
  const core::FaultScheduleState* fs =
      core::ExecutionContext::current().armedFaultSchedule();
  if (!fs) return false;
  JobFaultState* state = tlJobState();
  if (!state) return false;
  if (isSolverSite(site) && !tlSolverWindow()) return false;
  // The occurrence counter advances on every consultation — including
  // zero-rate sites — so the draw sequence is a property of the job's
  // control flow alone, not of which rates a particular plan enables.
  const auto siteIx = static_cast<std::size_t>(site);
  const std::uint64_t occurrence = state->occurrences[siteIx]++;
  const double rate = fs->rates[siteIx];
  if (rate <= 0.0) return false;
  // Pure draw over (seed, jobIndex, site, occurrence): two SplitMix64
  // finalizer passes, the same construction the per-task RNG streams use.
  const std::uint64_t streamKey = num::Rng::streamSeed(
      fs->seed,
      (static_cast<std::uint64_t>(state->jobIndex) << 8) |
          static_cast<std::uint64_t>(siteIx));
  const std::uint64_t h = num::Rng::streamSeed(streamKey, occurrence);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

}  // namespace amsyn::sim
