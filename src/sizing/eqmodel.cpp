#include "sizing/eqmodel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "sizing/ugf_detail.hpp"

namespace amsyn::sizing {

using circuit::Process;
using ugf_detail::Band;
using ugf_detail::certifiedBand;
using ugf_detail::crossingEstimate;
using ugf_detail::solveUgf;
using ugf_detail::TwoStageTerms;

namespace {
constexpr double kTwoPi = 2.0 * M_PI;

/// AmplifierValues slots (kAmplifierPerformances order).
enum Slot : std::size_t { kArea, kGainDb, kNoiseNv, kPm, kPower, kSlew, kSwing, kUgf };

/// Per-block active-area contributions, folded in stitch order.  For the
/// legacy two-stage this is TwoStageParams::activeArea term for term.
double composedArea(const OpampStructure& s, const ComposedGeometry& g) {
  const double l = g.l;
  double area = 2.0 * g.w1 * l;
  if (s.inputCascode) area += 2.0 * g.wc1 * l;
  area += 2.0 * g.w3 * l;
  if (s.loadCascode) area += 2.0 * g.wc3 * l;
  area += g.w5 * l;
  if (s.tailCascode) area += g.wc5 * l;
  if (s.secondStage) {
    area += g.w6 * l;
    area += g.w7 * l;
    if (s.sinkCascode) area += g.wc7 * l;
  }
  area += g.w8 * l;
  if (s.secondStage) area += opampCapArea(g.cc);
  return area;
}

/// Channel-length modulation at the model's 2 um channel (scaled from its
/// 1 um process value), per polarity and per role.
struct Lambdas {
  double n, p, in, load;
};
Lambdas lambdasFor(const OpampStructure& s, const Process& proc) {
  const double lamN = proc.lambdaN * 1e-6 / 2e-6;
  const double lamP = proc.lambdaP * 1e-6 / 2e-6;
  const bool nIn = s.input == Polarity::Nmos;
  return {lamN, lamP, nIn ? lamN : lamP, nIn ? lamP : lamN};
}

/// --- single-stage family: the OTA equations in electrical coordinates,
/// with each cascode contributing an output-conductance knock-down factor
/// (lam_c * vov_c / 2 — the cascode's intrinsic gain inverse), an extra
/// headroom term, and (input cascode) an extra pole.  Absent blocks
/// contribute the exact multiplicative/additive identities.
void singleStageValues(const OpampStructure& s, const Process& proc, double loadCap,
                       const std::vector<double>& x, const ComposedGeometry& g,
                       AmplifierValues& v) {
  // Block-slot parameters in stitch order (see OpampStructure::variables).
  std::size_t k = 0;
  const double i5 = x[k++];
  const double vov1 = x[k++];
  const double vov3 = x[k++];
  const double vov5 = x[k++];
  const double vovc1x = s.inputCascode ? x[k++] : 0.0;
  const double vovc3x = s.loadCascode ? x[k++] : 0.0;
  const double vovc5x = s.tailCascode ? x[k++] : 0.0;

  const bool nIn = s.input == Polarity::Nmos;
  const double kpLoad = nIn ? proc.kpP : proc.kpN;
  const Lambdas lam = lambdasFor(s, proc);
  const double l = g.l;

  const double gm1 = i5 / vov1;
  const double fIn = s.inputCascode ? lam.in * vovc1x / 2.0 : 1.0;
  const double fLoad = s.loadCascode ? lam.load * vovc3x / 2.0 : 1.0;
  const double fN = nIn ? fIn : fLoad;
  const double fP = nIn ? fLoad : fIn;
  const double gds = (lam.n * fN + lam.p * fP) * i5 / 2.0;
  const double av = gm1 / gds;
  const double ugf = gm1 / (kTwoPi * loadCap);

  // Mirror pole at the diode node (~2 cgs3 at conductance gm3).
  const double gm3 = i5 / vov3;
  const double w3 = std::max(proc.minW, 2.0 * (i5 / 2.0) * l / (kpLoad * vov3 * vov3));
  const double cgs3 = (2.0 / 3.0) * proc.cox * w3 * l;
  const double pMirror = gm3 / (kTwoPi * 2.0 * cgs3);
  double pm = 180.0 - 90.0 - std::atan(ugf / pMirror) * 180.0 / M_PI;
  if (s.inputCascode) {
    // Cascode source-node pole: gm_c over the cascode's own gate cap.
    const double gmc1 = i5 / vovc1x;
    const double cgsc1 = (2.0 / 3.0) * proc.cox * g.wc1 * l;
    const double pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
    pm -= std::atan(ugf / pCasc) * 180.0 / M_PI;
  }

  // Headroom: each stacked cascode eats its overdrive out of the swing.
  double swing = proc.vdd - vov3 - vov5 - vov1;
  if (s.inputCascode) swing -= vovc1x;
  if (s.loadCascode) swing -= vovc3x;
  if (s.tailCascode) swing -= vovc5x;

  const double psd = 2.0 * (16.0 / 3.0) * proc.kT() / gm1 * (1.0 + gm3 / gm1);
  v[kGainDb] = 20.0 * std::log10(av);
  v[kNoiseNv] = std::sqrt(psd) * 1e9;
  v[kPm] = pm;
  v[kPower] = proc.vdd * (i5 + 10e-6);
  v[kSlew] = i5 / loadCap;
  v[kSwing] = std::max(0.0, swing);
  v[kUgf] = ugf;
}

}  // namespace

/// --- two-stage family: the geometry-path equations, composed per block.
/// Currents and overdrives re-derive from the stitched device sizes (with
/// minimum-width flooring) so the model tracks exactly what
/// buildComposedOpamp will produce — the classic OPASYN failure mode is an
/// equation model whose idealized variables drift away from the
/// realizable device sizes.  Cascode blocks multiply their branch's output
/// conductance by lam_c*vov_c/2, add their overdrive to the headroom bill,
/// and (input cascode) append one pole; the nulling resistor moves the
/// Miller zero.
TwoStageTerms ugf_detail::twoStageTerms(const OpampStructure& s, const Process& proc,
                                        double loadCap, const ComposedGeometry& g) {
  const bool nIn = s.input == Polarity::Nmos;
  const double kpIn = nIn ? proc.kpN : proc.kpP;
  const double kpLoad = nIn ? proc.kpP : proc.kpN;
  const Lambdas lam = lambdasFor(s, proc);
  const double l = g.l;

  TwoStageTerms t{};
  const double i5 = g.ibias * g.w5 / g.w8;
  const double i7 = g.ibias * g.w7 / g.w8;
  t.i5 = i5;
  t.i7 = i7;

  const double vov1 = std::sqrt(i5 * l / (kpIn * g.w1));
  const double vov3 = std::sqrt(i5 * l / (kpLoad * g.w3));
  t.vov6 = std::sqrt(2.0 * i7 * l / (kpLoad * g.w6));
  t.vov7 = std::sqrt(2.0 * i7 * l / (kpIn * g.w7));

  const double gm1 = i5 / vov1;
  const double gm6 = 2.0 * i7 / t.vov6;
  t.gm1 = gm1;

  const double vovc1 = s.inputCascode ? std::sqrt(i5 * l / (kpIn * g.wc1)) : 0.0;
  const double vovc3 = s.loadCascode ? std::sqrt(i5 * l / (kpLoad * g.wc3)) : 0.0;
  t.vovc7 = s.sinkCascode ? std::sqrt(2.0 * i7 * l / (kpIn * g.wc7)) : 0.0;

  const double fIn = s.inputCascode ? lam.in * vovc1 / 2.0 : 1.0;
  const double fLoad = s.loadCascode ? lam.load * vovc3 / 2.0 : 1.0;
  const double fN1 = nIn ? fIn : fLoad;
  const double fP1 = nIn ? fLoad : fIn;
  const double av1 = gm1 / ((lam.n * fN1 + lam.p * fP1) * i5 / 2.0);

  // Stage 2: the sink is the input polarity, the driver the complement.
  const double fSink = s.sinkCascode ? lam.in * t.vovc7 / 2.0 : 1.0;
  const double fN2 = nIn ? fSink : 1.0;
  const double fP2 = nIn ? 1.0 : fSink;
  const double av2 = gm6 / ((lam.n * fN2 + lam.p * fP2) * i7);

  const double gbw = gm1 / (kTwoPi * g.cc);
  t.p2 = gm6 / (kTwoPi * loadCap);
  t.gm3 = i5 / vov3;
  const double cgs3 = (2.0 / 3.0) * proc.cox * g.w3 * l;
  t.p3 = t.gm3 / (kTwoPi * 2.0 * std::max(cgs3, 1e-18));

  // Optional cascode pole on the first stage's folded node.
  t.cascode = s.inputCascode;
  t.pCasc = 0.0;
  if (s.inputCascode) {
    const double gmc1 = i5 / vovc1;
    const double cgsc1 = (2.0 / 3.0) * proc.cox * g.wc1 * l;
    t.pCasc = gmc1 / (kTwoPi * std::max(cgsc1, 1e-18));
  }

  // Compensation zero.  Plain Miller keeps the legacy RHP zero z = gm6 /
  // (2 pi Cc); the nulling resistor shifts it through 1/z = 2 pi Cc
  // (1/gm6 - Rz) — negative (LHP, phase-recovering) once Rz > 1/gm6.
  t.nulled = s.comp == Compensation::MillerNulled;
  t.z = t.nulled ? 0.0 : gm6 / (kTwoPi * g.cc);
  t.zInv = t.nulled ? kTwoPi * g.cc * (1.0 / gm6 - g.rz) : 0.0;

  t.av0 = av1 * av2;
  t.p1 = gbw / std::max(t.av0, 1.0);  // dominant pole (Hz)
  return t;
}

namespace {

/// Open-loop magnitude of the multi-pole / one-zero response at f (Hz).
double magnitude(const TwoStageTerms& t, double f) {
  const double num = t.nulled ? 1.0 + (f * t.zInv) * (f * t.zInv) : 1.0 + (f / t.z) * (f / t.z);
  double den = (1.0 + (f / t.p1) * (f / t.p1)) * (1.0 + (f / t.p2) * (f / t.p2)) *
               (1.0 + (f / t.p3) * (f / t.p3));
  if (t.cascode) den *= 1.0 + (f / t.pCasc) * (f / t.pCasc);
  return t.av0 * std::sqrt(num / den);
}

// Only the bisection's last steps, within a few ulp of the crossing, can go
// either way, so a solve certifies a band [fL, fH] around a predicted
// crossing and runs the exact test `magnitude(mid) > 1` only inside.  A
// wrong prediction costs tests, not bits.  With u = 2^-53 = eps/2, each
// term 1 + (f/p)^2 rounds to within 4u (an underflow vanishes into the 1):
// num is within 4u, den (up to four terms) 19u, num / den 27u (4u of it if
// subnormal, as it stays above 1/DBL_MAX), and magnitude() 15.5u = 7.75 eps
// of the exact |H(f)| of its operands, absent overflow.  The band needs
// (a) av0 > 0; (b) |1/z| < |1/p1| (zInv for 1/z): the zero lies above the
// dominant pole, so |H| never rises with f; (c) a normal
// magnitude(kUgfCeiling): num and den are finite there and, every rounding
// being monotone, at every midpoint; (d) magnitude(fL) > 1 + 16 eps and
// magnitude(fH) < 1 - 16 eps.  A midpoint m < fL then has |H(m)| >= |H(fL)|
// > (1 + 16 eps) / (1 + 7.75 eps), so magnitude(m) > 1, as at fL; likewise
// above fH.  The loop compares lo * hi with fL^2 and fH^2, which round-trip
// through the monotone sqrt, so a decision need not wait on the sqrt.  The
// band starts 32 eps wide each side and doubles up to 1e-9; a prediction
// at a bracket end leaves that side open; a failed certificate leaves
// (-inf, inf), the plain loop.  A NaN midpoint is below unity either way.
constexpr int kSteps = 80;
constexpr double kUgfCeiling = 1e13;  ///< upper end of the bisection (Hz)
constexpr double kEps = 0x1p-52, kInf = HUGE_VAL;  ///< DBL_EPSILON, +inf
constexpr double kMargin = 16.0 * kEps, kFirstWidth = 32.0 * kEps, kLastWidth = 1e-9;

}  // namespace

/// |H(f)| = 1 iff P(x) = D(x) - av0^2 N(x) = 0 at x = f^2, N = 1 + zHat^2 x,
/// D = prod_i (1 + a_i x), zHat = 1/z (or zInv), a_i = 1/p_i^2.  For av0 > 1
/// P's coefficients change sign once (c0 < 0, c2..c4 > 0): one positive
/// root, with P convex for x > 0, so Newton from the right descends onto it
/// monotonically.  It starts at the two-pole root of (1 + a1 x)(1 + a2 x) =
/// av0^2, stepped x4 until P > 0.  Clamped to the bracket, as the bisection.
double ugf_detail::crossingEstimate(const TwoStageTerms& t) {
  const double av0Sq = t.av0 * t.av0, zHat = t.nulled ? t.zInv : 1.0 / t.z;
  if (!(av0Sq > 1.0)) return t.p1;
  const double a1 = 1.0 / (t.p1 * t.p1), a2 = 1.0 / (t.p2 * t.p2), g = av0Sq - 1.0;
  double c[5] = {1.0, 0.0, 0.0, 0.0, 0.0};  // D's coefficients, then P's
  for (const double a : {a1, a2, 1.0 / (t.p3 * t.p3), t.cascode ? 1.0 / (t.pCasc * t.pCasc) : 0.0})
    for (int k = 4; k > 0; --k) c[k] += a * c[k - 1];
  c[0] -= av0Sq;
  c[1] -= av0Sq * zHat * zHat;
  const auto p = [&c](double x) { return (((c[4] * x + c[3]) * x + c[2]) * x + c[1]) * x + c[0]; };
  const auto dp = [&c](double x) { return ((4 * c[4] * x + 3 * c[3]) * x + 2 * c[2]) * x + c[1]; };
  double x = 2.0 * g / ((a1 + a2) + std::sqrt((a1 + a2) * (a1 + a2) + 4.0 * a1 * a2 * g));
  for (int i = 0; i < 64 && !(p(x) > 0.0); ++i) x *= 4.0;
  for (int i = 0; i < 64; ++i) {
    const double step = p(x) / dp(x);
    if (!(step > 0.0)) break;
    x -= step;
    if (step < 1e-8 * x) break;  // the next step would be below an ulp
  }
  return std::min(std::max(std::sqrt(x), t.p1), kUgfCeiling);
}

/// The band certified around the estimate r, or (-inf, inf).
Band ugf_detail::certifiedBand(const TwoStageTerms& t, double r) {
  if (!(t.av0 > 0.0) || !std::isnormal(magnitude(t, kUgfCeiling)) ||
      !(t.nulled ? std::abs(t.zInv * t.p1) < 1.0 - 2.0 * kEps : std::abs(t.p1) < std::abs(t.z)))
    return {-kInf, kInf};
  for (double width = kFirstWidth; width <= kLastWidth; width *= 2.0) {
    const double fL = r * (1.0 - width), fH = r * (1.0 + width);
    const Band b{r <= t.p1 ? -kInf : fL * fL, r >= kUgfCeiling ? kInf : fH * fH};
    if ((b.loSq == -kInf || (magnitude(t, fL) > 1.0 + kMargin && std::sqrt(b.loSq) == fL)) &&
        (b.hiSq == kInf || (magnitude(t, fH) < 1.0 - kMargin && std::sqrt(b.hiSq) == fH)))
      return b;
  }
  return {-kInf, kInf};
}

/// True unity-gain crossing of the multi-pole / one-zero response.  When p2
/// sits near the GBW product the magnitude falls at -40 dB/dec before
/// crossing, so the measured UGF lands well below gm1/(2 pi Cc); reporting
/// the naive GBW here is exactly the kind of model-vs-silicon drift the
/// verification step of section 2.1 exists to catch.
///
/// The only state is (lo, hi): once a step leaves it bit-unchanged, every
/// later step would repeat that step exactly, so the loop stops there, after
/// 57 to 59 of the 80 steps on seeded points, 8 or 9 of them in the band.
/// lo and hi move through floating-point selects: no int/FP crossing.
double ugf_detail::solveUgf(const TwoStageTerms& t, const Band& band) {
  double lo = t.p1, hi = kUgfCeiling;
  for (int it = 0; it < kSteps; ++it) {
    const double sq = lo * hi, mid = std::sqrt(sq);
    bool up = sq < band.loSq;
    if (!up && !(sq > band.hiSq)) [[unlikely]] up = magnitude(t, mid) > 1.0;
    if (std::bit_cast<std::uint64_t>(up ? lo : hi) == std::bit_cast<std::uint64_t>(mid)) break;
    lo = up ? mid : lo;
    hi = up ? hi : mid;
  }
  return std::sqrt(lo * hi);
}

namespace {

/// K solves of solveUgf in lock step, sharing the latency of their serial
/// sqrt chains: each lane takes the serial loop's decisions from its own
/// band, with every lane's midpoint issued before any exact test; lo/hi
/// move through bit masks, and a lane stops at its own fixed point.
template <std::size_t K>
void solveUgfLockStep(const TwoStageTerms* t, double* ugf) {
  double lo[K]{}, hi[K]{};
  Band band[K]{};
  bool live[K]{};
  for (std::size_t k = 0; k < K; ++k) {
    lo[k] = t[k].p1;
    hi[k] = kUgfCeiling;
    band[k] = certifiedBand(t[k], crossingEstimate(t[k]));
    live[k] = true;
  }
  for (int it = 0; it < kSteps; ++it) {
    double mid[K]{};
    bool above[K]{}, inBand[K]{};
    for (std::size_t k = 0; k < K; ++k) {
      const double sq = lo[k] * hi[k];
      mid[k] = std::sqrt(sq);
      above[k] = sq < band[k].loSq;
      inBand[k] = live[k] & !above[k] & !(sq > band[k].hiSq);
    }
    bool anyLive = false;
    for (std::size_t k = 0; k < K; ++k) {
      if (inBand[k]) above[k] = magnitude(t[k], mid[k]) > 1.0;
      const std::uint64_t toLo = std::uint64_t{0} - std::uint64_t{above[k]};
      const std::uint64_t midB = std::bit_cast<std::uint64_t>(mid[k]);
      const std::uint64_t loB = std::bit_cast<std::uint64_t>(lo[k]);
      const std::uint64_t hiB = std::bit_cast<std::uint64_t>(hi[k]);
      live[k] = live[k] & (((loB & toLo) | (hiB & ~toLo)) != midB);
      const std::uint64_t write = std::uint64_t{0} - std::uint64_t{live[k]};
      const std::uint64_t intoLo = toLo & write, intoHi = ~toLo & write;
      lo[k] = std::bit_cast<double>((midB & intoLo) | (loB & ~intoLo));
      hi[k] = std::bit_cast<double>((midB & intoHi) | (hiB & ~intoHi));
      anyLive |= live[k];
    }
    if (!anyLive) break;
  }
  for (std::size_t k = 0; k < K; ++k) ugf[k] = std::sqrt(lo[k] * hi[k]);
}

/// The two-stage performances at a solved crossing (area aside).
void twoStageValues(const OpampStructure& s, const Process& proc, double loadCap,
                    const ComposedGeometry& g, const TwoStageTerms& t, double ugf,
                    AmplifierValues& v) {
  double pm = 180.0;
  pm -= std::atan(ugf / t.p1) * 180.0 / M_PI;
  pm -= std::atan(ugf / t.p2) * 180.0 / M_PI;
  pm -= (t.nulled ? std::atan(ugf * t.zInv) : std::atan(ugf / t.z)) * 180.0 / M_PI;
  pm -= std::atan(ugf / t.p3) * 180.0 / M_PI;
  if (t.cascode) pm -= std::atan(ugf / t.pCasc) * 180.0 / M_PI;

  double swing = proc.vdd - t.vov6 - t.vov7 -
                 0.5 * (std::abs(proc.vt0N) - 0.75 + std::abs(proc.vt0P) - 0.85);
  if (s.sinkCascode) swing -= t.vovc7;

  const double psd = 2.0 * (16.0 / 3.0) * proc.kT() / t.gm1 * (1.0 + t.gm3 / t.gm1);

  v[kGainDb] = 20.0 * std::log10(t.av0);
  v[kNoiseNv] = std::sqrt(psd) * 1e9;
  v[kPm] = pm;
  v[kPower] = proc.vdd * (t.i5 + t.i7 + g.ibias);
  v[kSlew] = std::min(t.i5 / g.cc, t.i7 / loadCap);
  v[kSwing] = std::max(0.0, swing);
  v[kUgf] = ugf;
}

}  // namespace

ComposedOpampModel::ComposedOpampModel(const OpampStructure& s, const Process& proc,
                                       double loadCap)
    : s_(s), proc_(proc), loadCap_(loadCap), vars_(s.variables()) {}

Performance ComposedOpampModel::evaluate(const std::vector<double>& x) const {
  return evaluate(x, proc_);
}

bool ComposedOpampModel::evaluateAmplifier(const std::vector<double>& x,
                                           AmplifierValues& out) const {
  out = values(x, proc_);
  return true;
}

Performance ComposedOpampModel::evaluate(const std::vector<double>& x,
                                         const Process& geometryProc) const {
  return amplifierPerformance(values(x, geometryProc));
}

AmplifierValues ComposedOpampModel::values(const std::vector<double>& x,
                                           const Process& geometryProc) const {
  if (x.size() != vars_.size())
    throw std::invalid_argument("ComposedOpampModel(" + s_.name() + "): wrong dimension");
  const ComposedGeometry g = composedGeometryFor(s_, x, geometryProc);
  AmplifierValues v{};
  v[kArea] = composedArea(s_, g);
  if (s_.secondStage) {
    const TwoStageTerms t = ugf_detail::twoStageTerms(s_, proc_, loadCap_, g);
    twoStageValues(s_, proc_, loadCap_, g, t,
                   solveUgf(t, certifiedBand(t, crossingEstimate(t))), v);
  } else {
    singleStageValues(s_, proc_, loadCap_, x, g, v);
  }
  return v;
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

  bool evaluateAmplifier(const std::vector<double>& x, AmplifierValues& out) const override {
    out = atCorner_.values(x, nominal_);
    return true;
  }

  const Process& nominal() const { return nominal_; }
  const ComposedOpampModel& atCorner() const { return atCorner_; }

 private:
  Process nominal_;
  ComposedOpampModel atCorner_;  ///< legacy two-stage at the corner process
};

// Batch lanes share one geometry only if their nominal processes agree in
// every bit, so the comparison is of the object representation: all
// doubles, then all ints, with no padding between or after them.
static_assert(sizeof(Process) == 35 * sizeof(double) + 6 * sizeof(int),
              "Process gained or lost a field: recheck sameBits(Process)");
bool sameBits(const Process& a, const Process& b) {
  return std::memcmp(&a, &b, sizeof(Process)) == 0;
}

/// Lanes hold only TwoStageCornerModels (TwoStageCornerBatch::of checks).
const TwoStageCornerModel& lane(const PerformanceModel* m) {
  return *static_cast<const TwoStageCornerModel*>(m);
}

}  // namespace

std::unique_ptr<PerformanceModel> makeTwoStageCornerModel(const Process& corner,
                                                          const Process& nominal,
                                                          double loadCap) {
  return std::make_unique<TwoStageCornerModel>(corner, nominal, loadCap);
}

std::optional<TwoStageCornerBatch> TwoStageCornerBatch::of(
    std::span<const PerformanceModel* const> models) {
  if (models.empty()) return std::nullopt;
  TwoStageCornerBatch batch;
  batch.lanes_.reserve(models.size());
  for (const PerformanceModel* m : models) {
    const auto* corner = dynamic_cast<const TwoStageCornerModel*>(m);
    if (!corner || !sameBits(corner->nominal(), lane(models.front()).nominal()))
      return std::nullopt;
    batch.lanes_.push_back(m);
  }
  return batch;
}

void TwoStageCornerBatch::evaluate(const std::vector<double>& x,
                                   std::span<AmplifierValues> out) const {
  if (out.size() != lanes_.size())
    throw std::invalid_argument("TwoStageCornerBatch: output size differs from the lanes'");
  const TwoStageCornerModel& first = lane(lanes_.front());
  const OpampStructure& s = first.atCorner().structure();
  if (x.size() != first.variables().size())
    throw std::invalid_argument("ComposedOpampModel(" + s.name() + "): wrong dimension");
  const ComposedGeometry g = composedGeometryFor(s, x, first.nominal());
  const double area = composedArea(s, g);
  constexpr std::size_t kGroup = 3;
  for (std::size_t i = 0; i < lanes_.size(); i += kGroup) {
    const std::size_t n = std::min(kGroup, lanes_.size() - i);
    TwoStageTerms t[kGroup]{};
    double ugf[kGroup]{};
    for (std::size_t k = 0; k < n; ++k) {
      const ComposedOpampModel& m = lane(lanes_[i + k]).atCorner();
      t[k] = ugf_detail::twoStageTerms(s, m.process(), m.loadCap(), g);
    }
    switch (n) {
      case 3: solveUgfLockStep<3>(t, ugf); break;
      case 2: solveUgfLockStep<2>(t, ugf); break;
      default: ugf[0] = solveUgf(t[0], certifiedBand(t[0], crossingEstimate(t[0]))); break;
    }
    for (std::size_t k = 0; k < n; ++k) {
      const ComposedOpampModel& m = lane(lanes_[i + k]).atCorner();
      out[i + k][kArea] = area;
      twoStageValues(s, m.process(), m.loadCap(), g, t[k], ugf[k], out[i + k]);
    }
  }
}

std::vector<Performance> safeEvaluateAll(std::span<const PerformanceModel* const> models,
                                         const std::vector<double>& x) {
  std::vector<Performance> perfs;
  perfs.reserve(models.size());
  if (const auto batch = TwoStageCornerBatch::of(models)) {
    std::vector<AmplifierValues> values(models.size());
    bool evaluated = true;
    try {
      batch->evaluate(x, values);
    } catch (...) {
      evaluated = false;  // each model's own safeEvaluate below tags the throw
    }
    if (evaluated) {
      for (const AmplifierValues& v : values) {
        perfs.push_back(amplifierPerformance(v));
        markNanScores(perfs.back());
      }
      return perfs;
    }
  }
  for (const PerformanceModel* m : models) perfs.push_back(safeEvaluate(*m, x));
  return perfs;
}

}  // namespace amsyn::sizing
