// Generic simulated-annealing engine.  Annealing is the workhorse global
// optimizer of 1990s analog CAD: OPTIMAN and FRIDGE anneal device sizes,
// OBLX anneals the ASTRX cost function, KOAN anneals device placement, and
// WRIGHT anneals mixed-signal floorplans.  One engine drives all of them; the
// problem supplies move / undo / cost callbacks.
#pragma once

#include <cstddef>
#include <functional>

#include "numeric/rng.hpp"

namespace amsyn::num {

struct AnnealOptions {
  double initialTemperature = 0.0;  ///< 0 = calibrate from random-move statistics
  double finalTemperature = 1e-6;   ///< relative to the initial temperature
  double coolingRate = 0.92;        ///< geometric factor per stage
  std::size_t movesPerStage = 0;    ///< 0 = scale with problem size hint
  std::size_t problemSizeHint = 16;
  double initialAcceptance = 0.9;  ///< target acceptance ratio during calibration
  std::size_t stagnationStages = 12;  ///< stop after this many stages without improvement
  std::uint64_t seed = 1;
};

struct AnnealStats {
  double bestCost = 0.0;
  std::size_t movesAttempted = 0;
  std::size_t movesAccepted = 0;
  std::size_t stages = 0;
};

/// Problem interface for the annealer.
///
/// `propose` applies a random move to the state; no cost-delta estimate is
/// needed, because the engine calls `cost` before and after.  `undo` must
/// restore the exact previous state.  Temperature calibration uses the same
/// three callbacks (propose, cost, undo per probe), so it consumes the RNG
/// stream exactly as the moves do.  `snapshot` is called whenever a new
/// global best is seen so the problem can record it (the engine itself is
/// state-agnostic).
struct AnnealProblem {
  std::function<double()> cost;        ///< full cost of the current state
  std::function<void(Rng&)> propose;   ///< apply a random move
  std::function<void()> undo;          ///< revert the last move
  std::function<void()> snapshot;      ///< record current state as best (optional)
};

/// Run simulated annealing; returns statistics.  The problem's state is left
/// at the last accepted configuration; callers normally restore the snapshot
/// recorded at the best cost.
AnnealStats anneal(const AnnealProblem& problem, const AnnealOptions& opts = {});

}  // namespace amsyn::num
