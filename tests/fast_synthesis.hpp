// A short, seeded anneal for the tests that run whole flows, batches or
// robust syntheses: two stagnation stages, fast cooling and a 40-evaluation
// refinement keep each run quick, and one shared definition keeps every
// suite sizing the same way.
#pragma once

#include "sizing/synth.hpp"

namespace amsyn::testutil {

inline sizing::SynthesisOptions fastSynthesisOptions() {
  sizing::SynthesisOptions opts;
  opts.seed = 11;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

}  // namespace amsyn::testutil
