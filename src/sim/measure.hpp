// Performance extraction from analysis results — the bridge between raw
// simulation and the specification-driven synthesis loop: gain, unity-gain
// frequency, phase margin, bandwidth and static power.  Slew and swing are
// estimated from the operating point (sizing/simmodel.cpp), not measured
// on a large-signal analysis.
#pragma once

#include <optional>

#include "sim/ac.hpp"
#include "sim/dc.hpp"

namespace amsyn::sim {

/// Low-frequency gain in dB (taken from the first sweep point).
double dcGainDb(const AcSweep& sweep);

/// Frequency where |H| crosses 1 (0 dB), log-interpolated; nullopt if the
/// sweep never crosses.
std::optional<double> unityGainFrequency(const AcSweep& sweep);

/// Phase margin in degrees: 180 + phase at the unity-gain frequency.
std::optional<double> phaseMarginDeg(const AcSweep& sweep);

/// -3 dB bandwidth relative to the dc gain; nullopt if not reached.
std::optional<double> bandwidth3dB(const AcSweep& sweep);

/// Static power drawn from all DC voltage sources (W).
double staticPower(const Mna& mna, const DcResult& op);

}  // namespace amsyn::sim
