// Monte-Carlo yield estimation under global process variation — the
// "statistical process tolerances" the paper lists as the other half of
// industrial robustness (section 2.2, last paragraph).  Device mismatch is
// not modeled: every sample perturbs the whole process, not single devices.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "manufacture/corners.hpp"
#include "numeric/stats.hpp"
#include "sizing/spec.hpp"

namespace amsyn::manufacture {

struct YieldOptions {
  std::size_t samples = 200;
  VariationSpace space;
};

struct YieldResult {
  num::Proportion yield;                 ///< pass fraction with 95% interval
  std::size_t samples = 0;
  std::map<std::string, double> worstSeen;  ///< most pessimistic value per perf
};

/// Yield of a design under global (process corner) variation: each sample
/// draws a process uniformly from the variation box, from one fixed random
/// stream, and checks the specs.
YieldResult yieldMonteCarlo(const ModelFactory& factory, const circuit::Process& nominal,
                            const std::vector<double>& x, const sizing::SpecSet& specs,
                            const YieldOptions& opts = {});

}  // namespace amsyn::manufacture
