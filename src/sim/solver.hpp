// Linear-solver selection and the sparse fast path's shared plumbing.
//
// Every analysis in sim/ solves structure-identical systems over and over:
// Newton iterations and continuation rungs reuse one Jacobian pattern, an
// AC sweep reuses one (G + jwC) pattern per frequency point, and a corner
// fan-out evaluates the same netlist structure at many process points.  The
// sparse path (numeric/sparse_lu.hpp + sim/mnasparse.hpp) exploits that by
// splitting factorization: analyze once per *pattern*, refactor numerically
// everywhere else.  This header provides:
//
//   - SolverMode, read from the current execution context's config
//     (ContextConfig::solver: AMSYN_SOLVER, or whatever the job's context
//     was built with), with Auto picking sparse only above a size threshold
//     so small netlists keep the dense kernel's lower constant factor;
//   - a process-wide symbolic-factorization cache keyed by pattern digest,
//     so the thousands of Mna instances a synthesis run creates for the
//     *same* testbench structure share one analysis;
//   - SparsePatternSolver<T>, the per-analysis wrapper that adopts/publishes
//     cached symbolics, maps SparseLuStatus to an outcome the caller can
//     act on (Singular, or Fallback => redo with dense — identical results
//     by construction, since the sparse LU replays the dense kernel), and
//     feeds the sim.sparse.* counters.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/metrics.hpp"
#include "numeric/sparse_lu.hpp"
#include "sim/mnasparse.hpp"

namespace amsyn::sim {

/// Auto: sparse when the system is large enough to win (default); Dense:
/// always num::LU; Sparse: always the sparse path (with dense fallback on
/// guard trips).  The enum is core's, so the config and the solver share
/// one spelling (core::parseSolverKind / core::solverKindName).
using SolverMode = core::SolverKind;

/// The solver mode of the calling thread's execution context.
SolverMode solverMode();

/// Auto picks sparse at and above this unknown count.  The default opamp
/// testbenches sit near n = 11 where dense wins on constant factor; ladder
/// netlists a few times larger already favor sparse refactors.
inline constexpr std::size_t kSparseAutoThreshold = 32;

/// Should an analysis over an n-unknown system take the sparse path?
bool useSparseSolver(std::size_t n);

/// Process-wide symbolic cache: pattern digest -> analysis.  Thread-safe;
/// entries persist for the process lifetime (patterns are few — one per
/// testbench structure x domain — while instances number in the millions).
std::shared_ptr<const num::SparseLuSymbolic> lookupSymbolic(
    const core::cache::Digest128& key);
void publishSymbolic(const core::cache::Digest128& key,
                     std::shared_ptr<const num::SparseLuSymbolic> sym);

/// sim.sparse.* counter ids, registered on first sparse use (keeps the run
/// report's counter set — and the golden report-schema tests — unchanged
/// for runs that never touch the sparse path).
struct SparseCounters {
  core::metrics::CounterId analyses;       ///< sim.sparse.analyses
  core::metrics::CounterId refactors;      ///< sim.sparse.refactors
  core::metrics::CounterId pivotDrift;     ///< sim.sparse.pivot_drift
  core::metrics::CounterId denseFallbacks; ///< sim.sparse.dense_fallbacks
  core::metrics::CounterId symbolicHits;   ///< sim.sparse.symbolic_hits
  core::metrics::CounterId symbolicMisses; ///< sim.sparse.symbolic_misses
  core::metrics::CounterId solves;         ///< sim.sparse.solves
};
const SparseCounters& sparseCounters();

enum class SparseFactorOutcome {
  Ok,        ///< factored; solve()/solveTransposed() valid
  Singular,  ///< matches the dense kernel's singular throw
  Fallback,  ///< guard tripped (fill/growth): redo this system with dense
};

/// One analysis' solver over a fixed pattern.  Construct once per pattern
/// (per Newton context / AC sweep), factor per value refresh.  After the
/// first Fallback the instance stays in fallback so the caller's dense path
/// handles every subsequent system of the sweep (guards are properties of
/// the structure and operating region, not of one value set).
template <typename T>
class SparsePatternSolver {
 public:
  SparsePatternSolver(const core::cache::Digest128& patternDigest,
                      std::string_view domain)
      : lu_(luOptions()) {
    // Domain-tag the cache key: the real-valued Newton Jacobian and the
    // complex AC matrix share a structure but not a pivot sequence, and
    // letting them share a symbolic entry would thrash it via pivot drift.
    core::cache::Hasher128 h;
    h.mixDigest(patternDigest);
    h.mixString(domain);
    key_ = h.digest();
  }

  SparseFactorOutcome factor(const num::CscMatrix<T>& a);

  /// True once a guard has tripped; callers skip straight to dense.
  bool fellBack() const { return fallback_; }

  std::vector<T> solve(const std::vector<T>& b) const {
    core::metrics::add(sparseCounters().solves);
    return lu_.solve(b);
  }
  std::vector<T> solveTransposed(const std::vector<T>& b) const {
    core::metrics::add(sparseCounters().solves);
    return lu_.solveTransposed(b);
  }

  const num::SparseLu<T>& lu() const { return lu_; }

 private:
  static num::SparseLuOptions luOptions() {
    num::SparseLuOptions o;
    o.maxFillRatio = 0.8;      // denser than this and dense LU is cheaper
    o.maxPivotGrowth = 1e12;   // numerically wild => let dense handle it
    return o;
  }

  core::cache::Digest128 key_;
  num::SparseLu<T> lu_;
  bool triedAdopt_ = false;
  bool fallback_ = false;
};

extern template class SparsePatternSolver<double>;
extern template class SparsePatternSolver<std::complex<double>>;

/// Everything a sparse Newton iteration needs, bundled so dc.cpp can thread
/// one pointer through its continuation ladder: the stamp plan and the
/// pattern solver (shared across rungs — same structure, changing values).
struct SparseNewtonContext {
  SparseMna sys;
  SparsePatternSolver<double> solver;
  /// `domain` separates symbolic-cache entries whose pivot sequences would
  /// thrash each other ("newton" for DC Jacobians, "tran" for companion-
  /// augmented ones — same structure, different value regimes).
  explicit SparseNewtonContext(const Mna& mna, std::string_view domain = "newton")
      : sys(mna), solver(sys.patternDigest(), domain) {}
};

}  // namespace amsyn::sim
