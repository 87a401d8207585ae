// Structured failure taxonomy and deterministic work budget for candidate
// evaluations.  The synthesis frontend is an optimization loop over
// thousands of candidate designs, and its central robustness requirement is
// that a bad candidate — unconverged bias point, singular Jacobian, NaN
// iterate, runaway Newton loop — becomes *infeasible data*, never a crash.
// Every analysis result and every Performance payload carries one of these
// reason codes so the sizing cost, corner search, and flow report *why* a
// point failed.
//
// Header-only on purpose: like core/parallel.hpp this sits below the
// evaluation libraries in the dependency order (amsyn_sim and amsyn_sizing
// include it without linking amsyn_core).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>

namespace amsyn::core {

/// Why a candidate evaluation (or one analysis inside it) failed.  `Ok`
/// means the result is trustworthy; everything else marks the result
/// infeasible for the optimizer while remaining an ordinary value.
/// Codes are append-only: the numeric value is persisted in cached
/// Performance payloads (sizing::kEvalStatusKey), so reordering existing
/// entries would reinterpret old data.
///
/// In a flow, a stage that fails with any code fails its attempt and the
/// flow redesigns, except for the two job-level codes: deadline_expired
/// (the allowance covered the whole job) and out_of_memory (a redesign
/// would re-run the allocation pattern that just failed) end the flow.
enum class EvalStatus : std::uint8_t {
  Ok = 0,
  DcNoConvergence,   ///< Newton + continuation ladder all failed to converge
  SingularJacobian,  ///< LU factorization hit a numerically singular matrix
  NanDetected,       ///< NaN/Inf appeared in an iterate, residual, or score
  BudgetExhausted,   ///< the evaluation ran out of Newton-iteration work units
  BadTopology,       ///< the candidate could not even be built into a netlist
  NoAcCrossing,      ///< AC response never crossed unity gain (no ugf/pm)
  InternalError,     ///< an exception escaped the evaluator and was contained
  DeadlineExpired,   ///< the job's wall-clock deadline passed mid-evaluation
  OutOfMemory,       ///< std::bad_alloc was contained (ends the flow: no redesign)
  kCount,            ///< number of reason codes (for counter arrays)
};

inline constexpr std::size_t kEvalStatusCount =
    static_cast<std::size_t>(EvalStatus::kCount);

/// Stable snake_case reason-code string (what FlowResult::failureReason and
/// reports print).
inline constexpr const char* evalStatusName(EvalStatus s) {
  switch (s) {
    case EvalStatus::Ok: return "ok";
    case EvalStatus::DcNoConvergence: return "dc_no_convergence";
    case EvalStatus::SingularJacobian: return "singular_jacobian";
    case EvalStatus::NanDetected: return "nan_detected";
    case EvalStatus::BudgetExhausted: return "budget_exhausted";
    case EvalStatus::BadTopology: return "bad_topology";
    case EvalStatus::NoAcCrossing: return "no_ac_crossing";
    case EvalStatus::InternalError: return "internal_error";
    case EvalStatus::DeadlineExpired: return "deadline_expired";
    case EvalStatus::OutOfMemory: return "out_of_memory";
    case EvalStatus::kCount: break;
  }
  return "unknown";
}

/// True for the two "ran out of allowance" reasons (deterministic work
/// units or wall clock) that every analysis treats as "stop charging, keep
/// partial results".
inline constexpr bool isWorkExhaustion(EvalStatus s) {
  return s == EvalStatus::BudgetExhausted || s == EvalStatus::DeadlineExpired;
}

/// Classify a contained exception into the taxonomy: std::bad_alloc is
/// out_of_memory (so OOM is never misfiled as an internal error, which the
/// flow redesigns after), anything else internal_error.  Null maps to Ok.
inline EvalStatus classifyException(std::exception_ptr e) {
  if (!e) return EvalStatus::Ok;
  try {
    std::rethrow_exception(e);
  } catch (const std::bad_alloc&) {
    return EvalStatus::OutOfMemory;
  } catch (...) {
    return EvalStatus::InternalError;
  }
}

/// classifyException(std::current_exception()) — for use inside catch(...).
inline EvalStatus classifyCurrentException() {
  return classifyException(std::current_exception());
}

/// Deterministic evaluation budget measured in Newton-iteration work units —
/// never wall clock, so an evaluation that exhausts its budget does so at
/// the same iterate regardless of machine speed or thread count, and the
/// surviving candidates of a parallel run stay bit-identical to a serial
/// run.  One budget belongs to one candidate evaluation (consume() is called
/// from that evaluation's thread only); the cancel flag may be flipped from
/// any thread — pool tasks poll it cooperatively so a runaway analysis
/// degrades to BudgetExhausted instead of hanging a worker.
///
/// A wall-clock deadline (core/resilience.hpp composes these into per-job
/// DeadlineBudgets) may be layered on top via setDeadlineNs(): the budget
/// then also reads the monotonic clock every `stride` charges — strided so
/// the nominal path pays one integer decrement per charge, not a clock read
/// (bench/bench_robustness measures the overhead) — and reports exhaustion
/// once the deadline has passed.  Unlike the work-unit limit, a deadline
/// trip point is machine-dependent by nature; exhaustionStatus()
/// distinguishes the two (DeadlineExpired vs BudgetExhausted) so callers
/// can keep the deterministic path deterministic and report the wall-clock
/// path apart.
class EvalBudget {
 public:
  /// Clock-read cadence for armed deadlines, in work units.  A Newton
  /// iteration on the benchmark circuits costs ~1-10 us, so 64 units keeps
  /// deadline detection latency under a millisecond while amortizing the
  /// clock read to noise.
  static constexpr std::uint64_t kDeadlineCheckStride = 64;

  /// `limit` = maximum work units (0 = unlimited, cancel-only).
  explicit EvalBudget(std::uint64_t limit = 0,
                      const std::atomic<bool>* externalCancel = nullptr)
      : limit_(limit), externalCancel_(externalCancel) {}

  /// Charge `units` of work.  Returns false once the budget is exhausted,
  /// cancelled, or past its deadline; the caller must then abandon the
  /// analysis and report exhaustionStatus().
  bool consume(std::uint64_t units = 1) {
    if (cancelled()) return false;
    if (deadlineNs_ != 0) {
      if (deadlineExpired_) return false;
      untilCheck_ = untilCheck_ > units ? untilCheck_ - units : 0;
      if (untilCheck_ == 0) {
        untilCheck_ = checkStride_;
        if (nowNs() >= deadlineNs_) {
          deadlineExpired_ = true;
          return false;
        }
      }
    }
    used_ += units;
    return limit_ == 0 || used_ <= limit_;
  }

  bool exhausted() const {
    return (limit_ != 0 && used_ > limit_) || cancelled() || deadlineExpired_;
  }

  /// Arm (or clear, absNs = 0) an absolute monotonic-clock deadline.  The
  /// first consume() after arming always checks the clock, so an
  /// already-expired deadline fails the very first charge — which is what
  /// makes deadline tests deterministic.
  void setDeadlineNs(std::int64_t absNs,
                     std::uint64_t strideUnits = kDeadlineCheckStride) {
    deadlineNs_ = absNs;
    checkStride_ = strideUnits == 0 ? 1 : strideUnits;
    untilCheck_ = 0;
    deadlineExpired_ = false;
  }
  std::int64_t deadlineNs() const { return deadlineNs_; }
  bool deadlineExpired() const { return deadlineExpired_; }

  /// Unconditional clock read (stage-boundary checkpoints, where one read
  /// per stage is noise): latches and returns whether the deadline passed.
  bool checkDeadline() {
    if (deadlineNs_ != 0 && !deadlineExpired_ && nowNs() >= deadlineNs_)
      deadlineExpired_ = true;
    return deadlineExpired_;
  }

  /// Which taxonomy code a failed consume() should be reported as.
  EvalStatus exhaustionStatus() const {
    return deadlineExpired_ ? EvalStatus::DeadlineExpired
                            : EvalStatus::BudgetExhausted;
  }

  /// Cooperative cancellation (safe from any thread).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed) ||
           (externalCancel_ && externalCancel_->load(std::memory_order_relaxed));
  }

  std::uint64_t used() const { return used_; }
  std::uint64_t limit() const { return limit_; }

  /// Monotonic now in ns (steady_clock; shared by every deadline consumer
  /// so "absolute deadline ns" means one thing across the process).
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::uint64_t limit_ = 0;
  std::uint64_t used_ = 0;
  std::atomic<bool> cancelled_{false};
  const std::atomic<bool>* externalCancel_ = nullptr;
  std::int64_t deadlineNs_ = 0;  ///< absolute monotonic ns; 0 = no deadline
  std::uint64_t checkStride_ = kDeadlineCheckStride;
  std::uint64_t untilCheck_ = 0;  ///< charges until the next clock read
  bool deadlineExpired_ = false;
};

}  // namespace amsyn::core
