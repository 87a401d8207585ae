// Manufacturability-aware synthesis (Mukherjee, Carley & Rutenbar,
// ICCAD 1995 — the paper's ref [31]).  Industrial practice demands designs
// that hold their specs across supply, temperature and process variation;
// the paper notes this was hard-coded into IDAC's plans but requires an
// explicit worst-case search in optimization-based flows, at a 4x-10x CPU
// premium.  This module implements the reference's strategy: a nonlinear
// (infinite-programming style) search for the worst-case "corners" of the
// operating/process box, wrapped in a cutting-plane synthesis loop that
// re-optimizes against the accumulated active corner set.
#pragma once

#include <functional>
#include <memory>

#include "circuit/process.hpp"
#include "sizing/cost.hpp"
#include "sizing/synth.hpp"

namespace amsyn::manufacture {

/// The operating/process variation box.  A corner is a point c in [0,1]^6
/// mapped onto (vdd, T, kpN, kpP, vtN, vtP).
struct VariationSpace {
  double vddRel = 0.10;     ///< +/- 10% supply
  double tempMin = 233.15;  ///< -40 C
  double tempMax = 398.15;  ///< +125 C
  double kpRel = 0.15;      ///< +/- 15% transconductance factor
  double vtAbs = 0.10;      ///< +/- 100 mV threshold shift

  static constexpr std::size_t kDims = 6;

  /// Instantiate the process at corner coordinates c (each in [0,1]).
  circuit::Process apply(const circuit::Process& nominal,
                         const std::vector<double>& c) const;
};

/// Factory building a performance model against a specific process instance
/// (corner evaluation needs models at non-nominal processes).
using ModelFactory =
    std::function<std::unique_ptr<sizing::PerformanceModel>(const circuit::Process&)>;

struct WorstCorner {
  std::vector<double> corner;  ///< coordinates in [0,1]^6
  double margin = 0.0;         ///< signed normalized margin (< 0: spec violated)
  double value = 0.0;          ///< performance value at the corner
  /// Model evaluations the hunt asked for: the 64 vertices, coordinate-
  /// search probes and the final value read.
  std::size_t evaluations = 0;
};

/// Find the corner minimizing the signed margin of one spec for a fixed
/// design x: vertex enumeration of the box (the worst case of a quasi-
/// monotone response sits at a vertex) refined by coordinate search.
/// Throws std::invalid_argument for an objective spec, which has no margin.
WorstCorner worstCaseCorner(const ModelFactory& factory, const circuit::Process& nominal,
                            const VariationSpace& space, const std::vector<double>& x,
                            const sizing::Spec& spec);

struct RobustOptions {
  sizing::SynthesisOptions synthesis;
  sizing::CostOptions cost;
  std::size_t maxRounds = 4;  ///< cutting-plane iterations (hunt rounds) at most
};

struct RobustResult {
  sizing::SynthesisResult nominal;   ///< plain (nominal-only) synthesis
  sizing::SynthesisResult robust;    ///< corner-aware result
  bool robustFeasibleAtCorners = false;
  std::size_t activeCorners = 0;     ///< distinct corners accumulated by the loop
  /// Hunt rounds that ran; every one but a final fixed-point round also
  /// re-synthesized against the grown corner set.
  std::size_t rounds = 0;
  double nominalEvaluations = 0;     ///< model evaluations, nominal run
  /// Model evaluations, corner-aware run: the nominal run, every hunt and
  /// re-synthesis that ran, and the final audit.
  double robustEvaluations = 0;
  double nominalSeconds = 0;         ///< wall time of the nominal-only synthesis
  double cornerSearchSeconds = 0;    ///< wall time of the cutting-plane phase
};

/// Cutting-plane robust synthesis: synthesize at the nominal process, hunt
/// worst-case corners for every constraint, add violated corners to the
/// evaluation set (the cost becomes the max over corners), re-synthesize,
/// repeat.  The loop stops after maxRounds rounds or at its fixed point: a
/// round whose hunts find no violated corner outside the set (compared by
/// exact coordinates).  Re-adding a corner the set holds would re-run the
/// same synthesis bit for bit, since the worst-case fold ignores a repeated
/// corner and the anneal is deterministic per seed.  Each distinct corner is
/// appended once, also when two specs return it in the same round.  Reports
/// evaluation counts so the paper's 4x-10x CPU claim can be checked
/// (bench/bench_claim_corners).
RobustResult robustSynthesize(const ModelFactory& factory, const circuit::Process& nominal,
                              const VariationSpace& space, const sizing::SpecSet& specs,
                              const RobustOptions& opts = {});

}  // namespace amsyn::manufacture
