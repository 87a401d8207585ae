#include "reference/composed_ugf.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace amsyn::reference {

using sizing::Compensation;
using sizing::Polarity;

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}  // namespace

UgfSolve composedTwoStageUgf(const sizing::OpampStructure& s, const circuit::Process& proc,
                             double loadCap, const std::vector<double>& x,
                             const circuit::Process& geometryProc) {
  if (!s.secondStage) throw std::invalid_argument("composedTwoStageUgf: single-stage structure");
  const bool nIn = s.input == Polarity::Nmos;
  const double kpIn = nIn ? proc.kpN : proc.kpP;
  const double kpLoad = nIn ? proc.kpP : proc.kpN;
  const double lamN = proc.lambdaN * 1e-6 / 2e-6;
  const double lamP = proc.lambdaP * 1e-6 / 2e-6;
  const double lamIn = nIn ? lamN : lamP;
  const double lamLoad = nIn ? lamP : lamN;

  const sizing::ComposedGeometry g = sizing::composedGeometryFor(s, x, geometryProc);
  const double l = g.l;

  const double i5 = g.ibias * g.w5 / g.w8;
  const double i7 = g.ibias * g.w7 / g.w8;

  const double vov1 = std::sqrt(i5 * l / (kpIn * g.w1));
  const double vov3 = std::sqrt(i5 * l / (kpLoad * g.w3));
  const double vov6 = std::sqrt(2.0 * i7 * l / (kpLoad * g.w6));

  const double gm1 = i5 / vov1;
  const double gm6 = 2.0 * i7 / vov6;

  const double vovc1 = s.inputCascode ? std::sqrt(i5 * l / (kpIn * g.wc1)) : 0.0;
  const double vovc3 = s.loadCascode ? std::sqrt(i5 * l / (kpLoad * g.wc3)) : 0.0;
  const double vovc7 = s.sinkCascode ? std::sqrt(2.0 * i7 * l / (kpIn * g.wc7)) : 0.0;

  const double fIn = s.inputCascode ? lamIn * vovc1 / 2.0 : 1.0;
  const double fLoad = s.loadCascode ? lamLoad * vovc3 / 2.0 : 1.0;
  const double fN1 = nIn ? fIn : fLoad;
  const double fP1 = nIn ? fLoad : fIn;
  const double av1 = gm1 / ((lamN * fN1 + lamP * fP1) * i5 / 2.0);

  const double fSink = s.sinkCascode ? lamIn * vovc7 / 2.0 : 1.0;
  const double fN2 = nIn ? fSink : 1.0;
  const double fP2 = nIn ? 1.0 : fSink;
  const double av2 = gm6 / ((lamN * fN2 + lamP * fP2) * i7);

  const double gbw = gm1 / (kTwoPi * g.cc);
  const double p2 = gm6 / (kTwoPi * loadCap);
  const double gm3 = i5 / vov3;
  const double cgs3 = (2.0 / 3.0) * proc.cox * g.w3 * l;
  const double p3 = gm3 / (kTwoPi * 2.0 * std::max(cgs3, 1e-18));

  double pCasc = 0.0;
  if (s.inputCascode) {
    const double gmc1 = i5 / vovc1;
    const double cgsc1 = (2.0 / 3.0) * proc.cox * g.wc1 * l;
    pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
  }

  const bool nulled = s.comp == Compensation::MillerNulled;
  const double z = nulled ? 0.0 : gm6 / (kTwoPi * g.cc);
  const double zInv = nulled ? kTwoPi * g.cc * (1.0 / gm6 - g.rz) : 0.0;

  const double av0 = av1 * av2;
  const double p1 = gbw / std::max(av0, 1.0);
  auto magnitude = [&](double f) {
    const double num = nulled ? 1.0 + (f * zInv) * (f * zInv) : 1.0 + (f / z) * (f / z);
    double den = (1.0 + (f / p1) * (f / p1)) * (1.0 + (f / p2) * (f / p2)) *
                 (1.0 + (f / p3) * (f / p3));
    if (s.inputCascode) den *= 1.0 + (f / pCasc) * (f / pCasc);
    return av0 * std::sqrt(num / den);
  };
  constexpr double kCeiling = 1e13;
  double lo = p1, hi = kCeiling;
  int fixedPointStep = 80;
  for (int it = 0; it < 80; ++it) {
    const double mid = std::sqrt(lo * hi);
    double& side = magnitude(mid) > 1.0 ? lo : hi;
    if (fixedPointStep == 80 && std::memcmp(&side, &mid, sizeof mid) == 0) fixedPointStep = it;
    side = mid;
  }
  const double ugf = std::sqrt(lo * hi);

  double pm = 180.0;
  pm -= std::atan(ugf / p1) * 180.0 / M_PI;
  pm -= std::atan(ugf / p2) * 180.0 / M_PI;
  pm -= (nulled ? std::atan(ugf * zInv) : std::atan(ugf / z)) * 180.0 / M_PI;
  pm -= std::atan(ugf / p3) * 180.0 / M_PI;
  if (s.inputCascode) pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;

  const double zeroHz = nulled ? 1.0 / std::abs(zInv) : std::abs(z);
  return {ugf, pm, av0, z, p1, zeroHz, magnitude(kCeiling), fixedPointStep};
}

}  // namespace amsyn::reference
