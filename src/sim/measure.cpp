#include "sim/measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amsyn::sim {

using circuit::Device;
using circuit::DeviceType;

double dcGainDb(const AcSweep& sweep) {
  if (sweep.points.empty()) throw std::invalid_argument("dcGainDb: empty sweep");
  return sweep.magnitudeDb(0);
}

std::optional<double> unityGainFrequency(const AcSweep& sweep) {
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    const double m0 = sweep.magnitudeDb(i - 1);
    const double m1 = sweep.magnitudeDb(i);
    if (m0 >= 0.0 && m1 < 0.0) {
      const double f0 = sweep.points[i - 1].frequency;
      const double f1 = sweep.points[i].frequency;
      const double t = m0 / (m0 - m1);
      return f0 * std::pow(f1 / f0, t);  // log-frequency interpolation
    }
  }
  return std::nullopt;
}

std::optional<double> phaseMarginDeg(const AcSweep& sweep) {
  const auto ugf = unityGainFrequency(sweep);
  if (!ugf) return std::nullopt;
  // Phase margin = 180 deg minus the phase *lag accumulated since DC* at
  // the unity-gain frequency.  Referencing the lag to the first sweep point
  // makes the measurement independent of whether the bench sees the gain
  // path inverting (DC phase 180) or non-inverting (DC phase 0).
  const double pDc = sweep.phaseDeg(0);
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    const double f0 = sweep.points[i - 1].frequency;
    const double f1 = sweep.points[i].frequency;
    if (f0 <= *ugf && *ugf <= f1) {
      const double p0 = sweep.phaseDeg(i - 1);
      const double p1 = sweep.phaseDeg(i);
      const double t = std::log(*ugf / f0) / std::log(f1 / f0);
      const double lag = pDc - (p0 + t * (p1 - p0));
      return 180.0 - lag;
    }
  }
  return std::nullopt;
}

std::optional<double> bandwidth3dB(const AcSweep& sweep) {
  if (sweep.points.empty()) return std::nullopt;
  const double ref = sweep.magnitudeDb(0) - 3.0103;
  for (std::size_t i = 1; i < sweep.points.size(); ++i) {
    const double m0 = sweep.magnitudeDb(i - 1);
    const double m1 = sweep.magnitudeDb(i);
    if (m0 >= ref && m1 < ref) {
      const double f0 = sweep.points[i - 1].frequency;
      const double f1 = sweep.points[i].frequency;
      const double t = (m0 - ref) / (m0 - m1);
      return f0 * std::pow(f1 / f0, t);
    }
  }
  return std::nullopt;
}

double staticPower(const Mna& mna, const DcResult& op) {
  if (!op.converged) throw std::invalid_argument("staticPower: op not converged");
  double p = 0.0;
  const auto& devs = mna.netlist().devices();
  for (std::size_t k = 0; k < devs.size(); ++k) {
    const Device& d = devs[k];
    if (d.type != DeviceType::VSource) continue;
    const double i = op.x.at(mna.branchIndex(k));
    // Power delivered by the source: V * (-i) with our branch convention.
    p += d.value * (-i);
  }
  return std::max(p, 0.0);
}

}  // namespace amsyn::sim
