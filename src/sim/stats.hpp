// Observability counters for the analyses in this module — thin recording
// shims over the process-wide metrics registry (core/metrics.hpp).
//
// Linear-solver traffic: AC sweeps and noise analyses cache their LU
// factorization and re-factor only when the frequency changes
// (sim/ac.cpp).  The counters live in the registry as
// "sim.lu_factorizations" / "sim.lu_reuses", sharded per thread: the
// recording hot path is lock-free, and aggregation sums every thread's
// shard, so traffic recorded on a pool worker reaches the run totals.
//
// Failure taxonomy: per-reason tallies of failed candidate evaluations and
// continuation-strategy usage (newton/gmin/source), registered as
// "sim.fail.<reason>" and "sim.strategy.<name>".
//
// Reading is the registry's job: Registry::total(name) is the process
// total, including traffic recorded on pool workers.  It is monotonic, so
// callers read deltas around a run, never reset.
#pragma once

#include <cstdint>

#include "core/evalstatus.hpp"

namespace amsyn::sim {

/// Record one LU factorization / cache reuse (hot path; calling thread's
/// registry shard).
void recordLuFactorization();
void recordLuReuse();

/// DC continuation strategies tallied under "sim.strategy.<name>".
enum class DcStrategy : std::uint8_t { Newton = 0, Gmin, Source };

/// Tally one DC operating point that converged via `s` (hot path).
void recordDcStrategy(DcStrategy s);

/// Tally one failed evaluation under its reason code (no-op for Ok).
void recordEvalFailure(core::EvalStatus reason);

}  // namespace amsyn::sim
