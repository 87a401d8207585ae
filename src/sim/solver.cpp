#include "sim/solver.hpp"

#include <map>
#include <mutex>

namespace amsyn::sim {

namespace {

struct SymbolicCache {
  std::mutex mu;
  std::map<core::cache::Digest128, std::shared_ptr<const num::SparseLuSymbolic>> map;
};

SymbolicCache& symbolicCache() {
  static SymbolicCache* c = new SymbolicCache;  // leaked: reachable at exit
  return *c;
}

}  // namespace

SolverMode solverMode() {
  // Context-resolved: code running without an installed scope sees the
  // ambient context, whose config came from AMSYN_SOLVER.
  return core::ExecutionContext::current().config().solver;
}

bool useSparseSolver(std::size_t n) {
  switch (solverMode()) {
    case SolverMode::Dense: return false;
    case SolverMode::Sparse: return n > 1;  // 1x1 systems: nothing to win
    case SolverMode::Auto: return n >= kSparseAutoThreshold;
  }
  return false;
}

std::shared_ptr<const num::SparseLuSymbolic> lookupSymbolic(
    const core::cache::Digest128& key) {
  SymbolicCache& c = symbolicCache();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.map.find(key);
  return it == c.map.end() ? nullptr : it->second;
}

void publishSymbolic(const core::cache::Digest128& key,
                     std::shared_ptr<const num::SparseLuSymbolic> sym) {
  if (!sym) return;
  SymbolicCache& c = symbolicCache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.map[key] = std::move(sym);  // last analysis wins (freshest pivot sequence)
}

const SparseCounters& sparseCounters() {
  static const SparseCounters ids = [] {
    auto& reg = core::metrics::registry();
    SparseCounters c;
    c.analyses = reg.counter("sim.sparse.analyses");
    c.refactors = reg.counter("sim.sparse.refactors");
    c.pivotDrift = reg.counter("sim.sparse.pivot_drift");
    c.denseFallbacks = reg.counter("sim.sparse.dense_fallbacks");
    c.symbolicHits = reg.counter("sim.sparse.symbolic_hits");
    c.symbolicMisses = reg.counter("sim.sparse.symbolic_misses");
    c.solves = reg.counter("sim.sparse.solves");
    return c;
  }();
  return ids;
}

template <typename T>
SparseFactorOutcome SparsePatternSolver<T>::factor(const num::CscMatrix<T>& a) {
  if (fallback_) return SparseFactorOutcome::Fallback;
  const SparseCounters& ctr = sparseCounters();
  if (!triedAdopt_) {
    triedAdopt_ = true;
    if (auto sym = lookupSymbolic(key_)) {
      lu_.adoptSymbolic(std::move(sym));
      core::metrics::add(ctr.symbolicHits);
    } else {
      core::metrics::add(ctr.symbolicMisses);
    }
  }
  const std::uint64_t a0 = lu_.analyzeCount();
  const std::uint64_t r0 = lu_.refactorCount();
  const std::uint64_t d0 = lu_.pivotDriftCount();
  const num::SparseLuStatus st = lu_.factor(a);
  core::metrics::add(ctr.analyses, lu_.analyzeCount() - a0);
  core::metrics::add(ctr.refactors, lu_.refactorCount() - r0);
  core::metrics::add(ctr.pivotDrift, lu_.pivotDriftCount() - d0);
  switch (st) {
    case num::SparseLuStatus::Ok:
      if (lu_.analyzeCount() != a0) publishSymbolic(key_, lu_.symbolic());
      return SparseFactorOutcome::Ok;
    case num::SparseLuStatus::Singular:
      return SparseFactorOutcome::Singular;
    case num::SparseLuStatus::ExcessFill:
    case num::SparseLuStatus::PivotGrowth:
      break;
  }
  fallback_ = true;
  core::metrics::add(ctr.denseFallbacks);
  return SparseFactorOutcome::Fallback;
}

template class SparsePatternSolver<double>;
template class SparsePatternSolver<std::complex<double>>;

}  // namespace amsyn::sim
