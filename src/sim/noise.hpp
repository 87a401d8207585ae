// Small-signal noise analysis by the adjoint method: one transposed solve
// per frequency yields the transfer from *every* internal noise source to the
// output simultaneously.  Sources modeled: resistor thermal (4kT/R) and MOS
// channel thermal + 1/f (see circuit::mosNoisePsd).
#pragma once

#include <string>
#include <vector>

#include "core/evalstatus.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"

namespace amsyn::sim {

struct NoisePoint {
  double frequency = 0.0;
  double outputPsd = 0.0;        ///< V^2/Hz at the output node
  double inputReferredPsd = 0.0; ///< outputPsd / |gain|^2 (0 when no stimulus)
};

struct NoiseResult {
  /// Ok, or why the analysis stopped early (SingularJacobian,
  /// DeadlineExpired); `points` then holds the frequencies finished.
  core::EvalStatus status = core::EvalStatus::Ok;
  std::vector<NoisePoint> points;
};

/// Noise analysis at `outputNode` over the given frequencies.  Gain for input
/// referral is taken from the netlist's AC stimulus (if any source has a
/// nonzero acMag).  The optional deadline is charged once per frequency;
/// a singular linearized system ends the analysis early via
/// NoiseResult::status instead of throwing.
NoiseResult noiseAnalysis(const Mna& mna, const DcResult& op, const std::string& outputNode,
                          const std::vector<double>& frequencies,
                          core::Deadline* deadline = nullptr);

}  // namespace amsyn::sim
