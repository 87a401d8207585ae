// Internal to sizing: the two-stage family's unity-gain solve, split so a
// test can hand the certified crossing band any estimate and check the
// bisection it steers against the plain one.  The definitions stay in
// eqmodel.cpp, beside their only library callers, so they inline there.
#pragma once

#include "circuit/process.hpp"
#include "sizing/blocks.hpp"

namespace amsyn::sizing::ugf_detail {

/// Everything one electrical process contributes to a two-stage structure:
/// the unity-gain solve reads its poles, zero and dc gain, the performance
/// fold the rest.
struct TwoStageTerms {
  double i5, i7, gm1, gm3, vov6, vov7, vovc7;
  double av0;           ///< dc loop gain av1 * av2
  double p1, p2, p3, pCasc;
  double z, zInv;       ///< plain-Miller zero, or the nulled zero's inverse
  bool nulled, cascode;  ///< Miller-nulled compensation; input-cascode pole
};

/// The terms of structure `s` (s.secondStage) with geometry `g` at process
/// `proc` and load `loadCap`.
TwoStageTerms twoStageTerms(const OpampStructure& s, const circuit::Process& proc,
                            double loadCap, const ComposedGeometry& g);

/// Steps whose lo * hi lies in [loSq, hiSq] run the exact test
/// `magnitude(mid) > 1`; the rest are decided without it.
struct Band {
  double loSq, hiSq;
};

/// Predicted unity-gain crossing (Hz), clamped to the bisection's bracket
/// [p1, 1e13].
double crossingEstimate(const TwoStageTerms& t);

/// The band certified around `estimate`, or (-inf, inf) when no band can
/// be certified.  Any estimate, however wrong, yields a band that decides
/// every step as the exact test would; a good one decides most of them.
Band certifiedBand(const TwoStageTerms& t, double estimate);

/// The unity-gain crossing: the 80-step bisection of [p1, 1e13], stopped at
/// its bitwise fixed point, with steps outside `band` decided by it.
double solveUgf(const TwoStageTerms& t, const Band& band);

}  // namespace amsyn::sizing::ugf_detail
