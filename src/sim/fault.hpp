// Deterministic fault injection for the simulation kernels.  Robustness
// code is only trustworthy if its fallback paths demonstrably fire: the
// gmin/source continuation rungs, the NaN bail-out, the mid-solve
// deadline stop.  Real circuits that hit those paths are fragile test
// fixtures, so tests instead arm a FaultPlan and the solvers consult it at
// well-defined points.
//
// The injector is thread_local: a test arms faults on its own thread and
// calls the solver directly, so concurrently running evaluations on pool
// threads are never perturbed and injection is deterministic by
// construction.  Production code pays one thread-local bool load per hook
// when disarmed.
#pragma once

#include <cstdint>

#include "core/resilience.hpp"

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
  /// Force the next N AC LU factorizations to be treated as singular.
  std::uint64_t failLuFactorizations = 0;
  /// > 0: after N successful deadline charges, every further charge fails
  /// as if the deadline had passed (exercises the DeadlineExpired stop at a
  /// precise iterate, even mid-evaluation, with no clock involved).
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
  bool takeLuFailure();         ///< sim/ac.cpp, once per factorization
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

/// Charge one unit against an (optional) deadline, honoring an injected
/// stop.  All analysis loops charge through this helper so the deadline —
/// and the injector — act at every analysis kind.  A false return means
/// the analysis must stop and report DeadlineExpired.
bool consumeWork(core::Deadline* deadline);

}  // namespace amsyn::sim
