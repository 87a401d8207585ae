#include "sizing/eqmodel.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace amsyn::sizing {

using circuit::Process;

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
}  // namespace

ComposedOpampModel::ComposedOpampModel(const OpampStructure& s, const Process& proc,
                                       double loadCap)
    : s_(s), proc_(proc), loadCap_(loadCap), vars_(s.variables()) {}

Performance ComposedOpampModel::evaluate(const std::vector<double>& x) const {
  return evaluate(x, proc_);
}

Performance ComposedOpampModel::evaluate(const std::vector<double>& x,
                                         const Process& geometryProc) const {
  if (x.size() != vars_.size())
    throw std::invalid_argument("ComposedOpampModel(" + s_.name() + "): wrong dimension");

  // Block-slot parameters in stitch order (see OpampStructure::variables).
  std::size_t k = 0;
  const double i5x = x[k++];
  const double i7x = s_.secondStage ? x[k++] : 0.0;
  (void)i7x;  // two-stage currents re-derive from the mirror ratios below
  const double vov1x = x[k++];
  const double vov3x = x[k++];
  const double vov5x = x[k++];
  if (s_.secondStage) ++k;  // vov6: pinned by the zero-offset constraint
  const double vovc1x = s_.inputCascode ? x[k++] : 0.0;
  const double vovc3x = s_.loadCascode ? x[k++] : 0.0;
  const double vovc5x = s_.tailCascode ? x[k++] : 0.0;

  const bool nIn = s_.input == Polarity::Nmos;
  const double kpIn = nIn ? proc_.kpN : proc_.kpP;
  const double kpLoad = nIn ? proc_.kpP : proc_.kpN;
  const double lamN = proc_.lambdaN * 1e-6 / 2e-6;
  const double lamP = proc_.lambdaP * 1e-6 / 2e-6;
  const double lamIn = nIn ? lamN : lamP;
  const double lamLoad = nIn ? lamP : lamN;

  const ComposedGeometry g = composedGeometryFor(s_, x, geometryProc);
  const double l = g.l;

  // Per-block active-area contributions, folded in stitch order.  For the
  // legacy two-stage this is TwoStageParams::activeArea term for term.
  double area = 2.0 * g.w1 * l;
  if (s_.inputCascode) area += 2.0 * g.wc1 * l;
  area += 2.0 * g.w3 * l;
  if (s_.loadCascode) area += 2.0 * g.wc3 * l;
  area += g.w5 * l;
  if (s_.tailCascode) area += g.wc5 * l;
  if (s_.secondStage) {
    area += g.w6 * l;
    area += g.w7 * l;
    if (s_.sinkCascode) area += g.wc7 * l;
  }
  area += g.w8 * l;
  if (s_.secondStage) area += opampCapArea(g.cc);

  // Both families report eight performances, inserted in name order (the
  // order Performance keeps), so no insertion moves an entry.
  Performance perf;
  perf.reserve(8);

  if (!s_.secondStage) {
    // --- single-stage family: the OTA equations in electrical coordinates,
    // with each cascode contributing an output-conductance knock-down
    // factor (lam_c * vov_c / 2 — the cascode's intrinsic gain inverse), an
    // extra headroom term, and (input cascode) an extra pole.  Absent
    // blocks contribute the exact multiplicative/additive identities.
    const double i5 = i5x, vov1 = vov1x, vov3 = vov3x, vov5 = vov5x;

    const double gm1 = i5 / vov1;
    const double fIn = s_.inputCascode ? lamIn * vovc1x / 2.0 : 1.0;
    const double fLoad = s_.loadCascode ? lamLoad * vovc3x / 2.0 : 1.0;
    const double fN = nIn ? fIn : fLoad;
    const double fP = nIn ? fLoad : fIn;
    const double gds = (lamN * fN + lamP * fP) * i5 / 2.0;
    const double av = gm1 / gds;
    const double ugf = gm1 / (kTwoPi * loadCap_);

    // Mirror pole at the diode node (~2 cgs3 at conductance gm3).
    const double gm3 = i5 / vov3;
    const double w3 = std::max(proc_.minW, 2.0 * (i5 / 2.0) * l / (kpLoad * vov3 * vov3));
    const double cgs3 = (2.0 / 3.0) * proc_.cox * w3 * l;
    const double pMirror = gm3 / (kTwoPi * 2.0 * cgs3);
    double pm = 180.0 - 90.0 - std::atan(ugf / pMirror) * 180.0 / M_PI;
    if (s_.inputCascode) {
      // Cascode source-node pole: gm_c over the cascode's own gate cap.
      const double gmc1 = i5 / vovc1x;
      const double cgsc1 = (2.0 / 3.0) * proc_.cox * g.wc1 * l;
      const double pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
      pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;
    }

    // Headroom: each stacked cascode eats its overdrive out of the swing.
    double swing = proc_.vdd - vov3 - vov5 - vov1;
    if (s_.inputCascode) swing -= vovc1x;
    if (s_.loadCascode) swing -= vovc3x;
    if (s_.tailCascode) swing -= vovc5x;

    const double psd = 2.0 * (16.0 / 3.0) * proc_.kT() / gm1 * (1.0 + gm3 / gm1);
    perf["area"] = area;
    perf["gain_db"] = 20.0 * std::log10(av);
    perf["noise_nv"] = std::sqrt(psd) * 1e9;
    perf["pm"] = pm;
    perf["power"] = proc_.vdd * (i5 + 10e-6);
    perf["slew"] = i5 / loadCap_;
    perf["swing"] = std::max(0.0, swing);
    perf["ugf"] = ugf;
    return perf;
  }

  // --- two-stage family: the geometry-path equations, composed per block.
  // Currents and overdrives re-derive from the stitched device sizes (with
  // minimum-width flooring) so the model tracks exactly what
  // buildComposedOpamp will produce — the classic OPASYN failure mode is an
  // equation model whose idealized variables drift away from the
  // realizable device sizes.  Cascode blocks multiply their branch's output
  // conductance by lam_c*vov_c/2, add their overdrive to the headroom bill,
  // and (input cascode) append one pole; the nulling resistor moves the
  // Miller zero.
  const double i5 = g.ibias * g.w5 / g.w8;
  const double i7 = g.ibias * g.w7 / g.w8;

  const double vov1 = std::sqrt(i5 * l / (kpIn * g.w1));
  const double vov3 = std::sqrt(i5 * l / (kpLoad * g.w3));
  const double vov6 = std::sqrt(2.0 * i7 * l / (kpLoad * g.w6));
  const double vov7 = std::sqrt(2.0 * i7 * l / (kpIn * g.w7));

  const double gm1 = i5 / vov1;
  const double gm6 = 2.0 * i7 / vov6;

  const double vovc1 = s_.inputCascode ? std::sqrt(i5 * l / (kpIn * g.wc1)) : 0.0;
  const double vovc3 = s_.loadCascode ? std::sqrt(i5 * l / (kpLoad * g.wc3)) : 0.0;
  const double vovc7 = s_.sinkCascode ? std::sqrt(2.0 * i7 * l / (kpIn * g.wc7)) : 0.0;

  const double fIn = s_.inputCascode ? lamIn * vovc1 / 2.0 : 1.0;
  const double fLoad = s_.loadCascode ? lamLoad * vovc3 / 2.0 : 1.0;
  const double fN1 = nIn ? fIn : fLoad;
  const double fP1 = nIn ? fLoad : fIn;
  const double av1 = gm1 / ((lamN * fN1 + lamP * fP1) * i5 / 2.0);

  // Stage 2: the sink is the input polarity, the driver the complement.
  const double fSink = s_.sinkCascode ? lamIn * vovc7 / 2.0 : 1.0;
  const double fN2 = nIn ? fSink : 1.0;
  const double fP2 = nIn ? 1.0 : fSink;
  const double av2 = gm6 / ((lamN * fN2 + lamP * fP2) * i7);

  const double gbw = gm1 / (kTwoPi * g.cc);
  const double p2 = gm6 / (kTwoPi * loadCap_);
  const double gm3 = i5 / vov3;
  const double cgs3 = (2.0 / 3.0) * proc_.cox * g.w3 * l;
  const double p3 = gm3 / (kTwoPi * 2.0 * std::max(cgs3, 1e-18));

  // Optional cascode pole on the first stage's folded node.
  double pCasc = 0.0;
  if (s_.inputCascode) {
    const double gmc1 = i5 / vovc1;
    const double cgsc1 = (2.0 / 3.0) * proc_.cox * g.wc1 * l;
    pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
  }

  // Compensation zero.  Plain Miller keeps the legacy RHP zero z = gm6 /
  // (2 pi Cc); the nulling resistor shifts it through 1/z = 2 pi Cc
  // (1/gm6 - Rz) — negative (LHP, phase-recovering) once Rz > 1/gm6.
  const bool nulled = s_.comp == Compensation::MillerNulled;
  const double z = nulled ? 0.0 : gm6 / (kTwoPi * g.cc);
  const double zInv = nulled ? kTwoPi * g.cc * (1.0 / gm6 - g.rz) : 0.0;

  // True unity-gain crossing of the multi-pole / one-zero response.  When
  // p2 sits near the GBW product the magnitude falls at -40 dB/dec before
  // crossing, so the measured UGF lands well below gm1/(2 pi Cc); reporting
  // the naive GBW here is exactly the kind of model-vs-silicon drift the
  // verification step of section 2.1 exists to catch.
  const double av0 = av1 * av2;
  const double p1 = gbw / std::max(av0, 1.0);  // dominant pole (Hz)
  auto magnitude = [&](double f) {
    const double num = nulled ? 1.0 + (f * zInv) * (f * zInv) : 1.0 + (f / z) * (f / z);
    double den = (1.0 + (f / p1) * (f / p1)) * (1.0 + (f / p2) * (f / p2)) *
                 (1.0 + (f / p3) * (f / p3));
    if (s_.inputCascode) den *= 1.0 + (f / pCasc) * (f / pCasc);
    return av0 * std::sqrt(num / den);
  };

  // The bisection below decides each step by `magnitude(mid) > 1`, but
  // most steps are far from the crossing, where a cheaper test gives the
  // same answer.  magnitude(f) > 1 iff av0^2 N(f) > D(f), with
  //   N(f) = 1 + (f zHat)^2,   D(f) = prod_i (1 + (f pHat_i)^2),
  // zHat = 1/z (or zInv) and pHat_i = 1/p_i hoisted out of the loop: no
  // division and no sqrt per step.
  //
  // Error bound.  In round-to-nearest each side is a short chain of
  // products, squares and one-plus terms, so it carries a relative error
  // of a few tens of ulp (< 1e-14); the exact test's own rounding in
  // magnitude() is ~13 ulp.  The filter decides only when the two sides
  // differ by more than kTie = 1e-12 relative, far outside both errors, so
  // its decision is the exact test's, bit for bit.  The bound needs every
  // operand normal and every term far from overflow (else the exact test
  // might overflow where the filter does not): av0 > 0 with a normal
  // av0^2, normal reciprocals, and N, D and av0^2 N below kHuge.  Anything
  // else (a near tie, a non-finite or denormal operand, av0 <= 0) falls
  // back to the exact test.  UgfDifferential.* in
  // tests/composed_topology_test.cpp holds the solve bit-equal to the
  // plain 80-step loop.
  constexpr double kTie = 1e-12;
  constexpr double kHuge = 1e300;
  const double zHat = nulled ? zInv : 1.0 / z;
  const double pHat1 = 1.0 / p1, pHat2 = 1.0 / p2, pHat3 = 1.0 / p3;
  const double pHatCasc = s_.inputCascode ? 1.0 / pCasc : 0.0;
  const double av0Sq = av0 * av0;
  const bool filterable = av0 > 0.0 && std::isnormal(av0Sq) && std::isnormal(zHat) &&
                          std::isnormal(pHat1) && std::isnormal(pHat2) &&
                          std::isnormal(pHat3) && (!s_.inputCascode || std::isnormal(pHatCasc));
  auto aboveUnity = [&](double f) {
    if (filterable) {
      const auto term = [f](double rHat) { return 1.0 + (f * rHat) * (f * rHat); };
      const double n = term(zHat);
      double d = term(pHat1) * term(pHat2) * term(pHat3);
      if (s_.inputCascode) d *= term(pHatCasc);
      const double lhs = av0Sq * n;
      if (n < kHuge && d < kHuge && lhs < kHuge) {
        if (lhs > d * (1.0 + kTie)) return true;
        if (lhs < d * (1.0 - kTie)) return false;
      }
    }
    return magnitude(f) > 1.0;
  };
  // The only state is (lo, hi): once a step leaves it bit-unchanged, every
  // later step would repeat that step exactly, so the loop stops there.  On
  // seeded points of every two-stage structure that happens after 57 to 59
  // of the 80 steps.
  double lo = p1, hi = 1e13;
  for (int it = 0; it < 80; ++it) {
    const double mid = std::sqrt(lo * hi);
    double& side = aboveUnity(mid) ? lo : hi;
    if (std::bit_cast<std::uint64_t>(side) == std::bit_cast<std::uint64_t>(mid)) break;
    side = mid;
  }
  const double ugf = std::sqrt(lo * hi);

  double pm = 180.0;
  pm -= std::atan(ugf / p1) * 180.0 / M_PI;
  pm -= std::atan(ugf / p2) * 180.0 / M_PI;
  pm -= (nulled ? std::atan(ugf * zInv) : std::atan(ugf / z)) * 180.0 / M_PI;
  pm -= std::atan(ugf / p3) * 180.0 / M_PI;
  if (s_.inputCascode) pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;

  double swing = proc_.vdd - vov6 - vov7 -
                 0.5 * (std::abs(proc_.vt0N) - 0.75 + std::abs(proc_.vt0P) - 0.85);
  if (s_.sinkCascode) swing -= vovc7;

  const double psd = 2.0 * (16.0 / 3.0) * proc_.kT() / gm1 * (1.0 + gm3 / gm1);

  perf["area"] = area;
  perf["gain_db"] = 20.0 * std::log10(av1 * av2);
  perf["noise_nv"] = std::sqrt(psd) * 1e9;
  perf["pm"] = pm;
  perf["power"] = proc_.vdd * (i5 + i7 + g.ibias);
  perf["slew"] = std::min(i5 / g.cc, i7 / loadCap_);
  perf["swing"] = std::max(0.0, swing);
  perf["ugf"] = ugf;
  return perf;
}

namespace {

/// See makeTwoStageCornerModel.
class TwoStageCornerModel : public PerformanceModel {
 public:
  TwoStageCornerModel(const Process& corner, const Process& nominal, double loadCap)
      : nominal_(nominal), atCorner_(OpampStructure::legacyTwoStage(), corner, loadCap) {}

  const std::vector<DesignVariable>& variables() const override {
    return atCorner_.variables();
  }

  Performance evaluate(const std::vector<double>& x) const override {
    return atCorner_.evaluate(x, nominal_);
  }

 private:
  Process nominal_;
  ComposedOpampModel atCorner_;  ///< legacy two-stage at the corner process
};

}  // namespace

std::unique_ptr<PerformanceModel> makeTwoStageCornerModel(const Process& corner,
                                                          const Process& nominal,
                                                          double loadCap) {
  return std::make_unique<TwoStageCornerModel>(corner, nominal, loadCap);
}

}  // namespace amsyn::sizing
