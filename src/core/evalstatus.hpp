// Structured failure taxonomy for candidate evaluations.  The synthesis
// frontend is an optimization loop over thousands of candidate designs, and
// its central robustness requirement is that a bad candidate — unconverged
// bias point, singular Jacobian, NaN iterate, runaway Newton loop — becomes
// *infeasible data*, never a crash.  Every analysis result and every
// Performance payload carries one of these reason codes so the sizing cost,
// corner search, and flow report *why* a point failed.  (The runaway-loop
// stop is the job deadline, core/resilience.hpp.)
//
// Header-only on purpose: like core/parallel.hpp this sits below the
// evaluation libraries in the dependency order (amsyn_sim and amsyn_sizing
// include it without linking amsyn_core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>

namespace amsyn::core {

/// Why a candidate evaluation (or one analysis inside it) failed.  `Ok`
/// means the result is trustworthy; everything else marks the result
/// infeasible for the optimizer while remaining an ordinary value.
/// Codes are append-only: the numeric value is carried in Performance
/// payloads (sizing::kEvalStatusKey), so reordering existing entries would
/// reinterpret old data.
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
  BudgetExhausted,   ///< retired: no path produces it; kept so the codes
                     ///< after it keep their values
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

}  // namespace amsyn::core
