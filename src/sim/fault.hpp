// Deterministic fault injection for the simulation kernels.  Robustness
// code is only trustworthy if its fallback paths demonstrably fire: the
// gmin/source continuation rungs, the NaN bail-out, the budget-exhaustion
// path.  Real circuits that hit those paths are fragile test fixtures, so
// tests instead arm a FaultPlan and the solvers consult it at well-defined
// points.
//
// The injector is thread_local: a test arms faults on its own thread and
// calls the solver directly, so concurrently running evaluations on pool
// threads are never perturbed and injection is deterministic by
// construction.  Production code pays one thread-local bool load per hook
// when disarmed.
//
// Batch/flow-level injection (the chaos harness) is a second mechanism,
// scoped to the current core::ExecutionContext: a seeded BatchFaultPlan
// armed once for a whole batch, with every decision a pure function of
// (seed, jobIndex, site, occurrence).
// The thread_local plan above cannot express this — under the
// work-stealing pool the thread that runs job i varies with thread count,
// so thread-scoped counters would make injection schedule-dependent.
// Instead each job's runner declares "this thread is now executing job i"
// (BatchFaultScope) and the per-job occurrence counters live in that
// scope, making the fault sequence a property of the job, invariant under
// AMSYN_THREADS.
//
// Scoping rule for solver-level sites: batch faults reach the DC/AC/LU
// hooks only inside a SolverFaultWindow, which the flow opens around its
// *serial* verification measurements.  The sizing optimizer's inner
// evaluations run under nested parallelFor loops where the set of indices
// the job thread happens to execute depends on scheduling; injecting there
// would break thread-count invariance, and those paths are already covered
// by the thread_local plans plus deterministic work budgets.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/evalstatus.hpp"

namespace amsyn::sim {

/// What to break, counted in solver events from the moment of arming.
struct FaultPlan {
  /// Force the next N calls to the DC Newton solver to fail as singular
  /// (each continuation rung makes one or more such calls, so N=1 forces
  /// plain Newton onto the gmin rung and N=2 pushes through to source
  /// stepping).
  std::uint64_t failDcNewtonSolves = 0;
  /// Poison the next N DC residual assemblies with a NaN entry (exercises
  /// the NaN guard that bails to the next continuation rung immediately).
  std::uint64_t poisonDcResiduals = 0;
  /// Force the next N AC/transient LU factorizations to be treated as
  /// singular.
  std::uint64_t failLuFactorizations = 0;
  /// > 0: after N successful budget charges, every further charge reports
  /// exhaustion regardless of the budget's real limit (exercises the
  /// BudgetExhausted path at a precise iterate, even mid-evaluation).
  std::uint64_t exhaustBudgetAfter = 0;
  bool useExhaustBudget = false;  ///< exhaustBudgetAfter == 0 means "immediately"
};

class FaultInjector {
 public:
  /// The calling thread's injector.  (Named for what it is — a thread_local
  /// slot, not a process singleton; the context lint bans `::instance()`
  /// spellings in production code.)
  static FaultInjector& threadLocal();

  void arm(const FaultPlan& plan);
  void disarm();
  bool armed() const { return armed_; }

  // --- hooks consulted by the solvers (each consumes one planned event) ---
  bool takeDcNewtonFailure();   ///< sim/dc.cpp, once per Newton solve call
  bool takeResidualPoison();    ///< sim/dc.cpp, once per residual assembly
  bool takeLuFailure();         ///< sim/ac.cpp + sim/transient.cpp factorizations
  bool takeBudgetExhaustion();  ///< consumeWork(), once per charge

 private:
  FaultPlan plan_;
  bool armed_ = false;
};

/// RAII arming for tests: faults active for the scope's lifetime.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const FaultPlan& plan) {
    FaultInjector::threadLocal().arm(plan);
  }
  ~ScopedFaultInjection() { FaultInjector::threadLocal().disarm(); }

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

// ---------------------------------------------------------------------------
// Batch-level deterministic fault schedule (chaos harness)

/// Injection points the batch schedule can perturb.  Solver sites fire only
/// inside a SolverFaultWindow (see file comment); flow sites are consulted
/// directly by the flow engine.
enum class FaultSite : std::uint8_t {
  DcNewton = 0,    ///< force a DC Newton solve singular
  DcResidual,      ///< poison a DC residual assembly with NaN
  LuFactor,        ///< force an AC/transient LU factorization singular
  BudgetCharge,    ///< report budget exhaustion on a work charge
  StageRun,        ///< fail a flow stage outright (internal_error)
  DeadlineCheck,   ///< report deadline expiry at a stage boundary
  kCount,
};

inline constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kCount);

/// Per-site injection probabilities for one seeded batch schedule.  Every
/// draw is the SplitMix64 finalizer over (seed, jobIndex, site, occurrence)
/// mapped to [0, 1) — a pure function, so the fault sequence each job sees
/// is identical at any thread count, with or without the eval cache, and
/// reproducible across runs.
struct BatchFaultPlan {
  std::uint64_t seed = 1;
  double rates[kFaultSiteCount] = {};  ///< indexed by FaultSite

  double& rate(FaultSite s) { return rates[static_cast<std::size_t>(s)]; }
  double rate(FaultSite s) const { return rates[static_cast<std::size_t>(s)]; }
};

/// Arm/disarm the *current ExecutionContext's* batch schedule.  Code with
/// no installed context arms the ambient context — the old process-wide
/// behavior — while a job context created under an armed ancestor inherits
/// its schedule (takeBatchFault walks the parent chain), and sibling
/// contexts never see each other's plans.  Arming is not thread-safe
/// against in-flight jobs: arm before the batch fans out, disarm after it
/// drains (RAII: ScopedBatchFaults).
void armBatchFaults(const BatchFaultPlan& plan);
void disarmBatchFaults();
bool batchFaultsArmed();

/// RAII batch-schedule arming for tests and the chaos soak harness.
class ScopedBatchFaults {
 public:
  explicit ScopedBatchFaults(const BatchFaultPlan& plan) { armBatchFaults(plan); }
  ~ScopedBatchFaults() { disarmBatchFaults(); }
  ScopedBatchFaults(const ScopedBatchFaults&) = delete;
  ScopedBatchFaults& operator=(const ScopedBatchFaults&) = delete;
};

/// "This thread is now executing batch job `jobIndex`": binds the job's
/// occurrence counters to the calling thread for the scope's lifetime
/// (synthesizeBatch binds one per job).  Nesting restores the outer scope
/// on destruction.  Stage retries and redesigns run inside the job's one
/// scope, so their occurrence counters continue — a retried stage
/// deterministically sees fresh draws.
class BatchFaultScope {
 public:
  explicit BatchFaultScope(std::size_t jobIndex);
  ~BatchFaultScope();
  BatchFaultScope(const BatchFaultScope&) = delete;
  BatchFaultScope& operator=(const BatchFaultScope&) = delete;

 private:
  void* saved_ = nullptr;  ///< outer scope's state (opaque)
};

/// Opens the solver-level sites (DcNewton/DcResidual/LuFactor/BudgetCharge)
/// to the batch schedule on the calling thread.  The flow's verify stages
/// hold one around their serial measurements; everything else leaves the
/// solver hooks untouched by batch faults.
class SolverFaultWindow {
 public:
  SolverFaultWindow();
  ~SolverFaultWindow();
  SolverFaultWindow(const SolverFaultWindow&) = delete;
  SolverFaultWindow& operator=(const SolverFaultWindow&) = delete;

 private:
  bool saved_ = false;
};

/// Draw the (jobIndex, site, occurrence++) decision for the calling
/// thread's job scope.  False when the schedule is disarmed, no scope is
/// bound, or — for solver sites — no SolverFaultWindow is open.
bool takeBatchFault(FaultSite site);

/// Charge `units` against an (optional) budget, honoring injected
/// exhaustion.  All analysis loops fund their work through this helper so
/// the budget semantics — and the injector — act at every analysis kind.
bool consumeWork(core::EvalBudget* budget, std::uint64_t units = 1);

/// Taxonomy code for a failed consumeWork(): DeadlineExpired when the
/// budget's wall-clock deadline tripped, BudgetExhausted otherwise
/// (including injected exhaustion and external cancellation).
inline core::EvalStatus budgetStopStatus(const core::EvalBudget* budget) {
  return budget ? budget->exhaustionStatus() : core::EvalStatus::BudgetExhausted;
}

}  // namespace amsyn::sim
