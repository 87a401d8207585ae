#include "sizing/eqmodel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace amsyn::sizing {

using circuit::Process;

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

/// --- two-stage family: the geometry-path equations, composed per block.
/// Currents and overdrives re-derive from the stitched device sizes (with
/// minimum-width flooring) so the model tracks exactly what
/// buildComposedOpamp will produce — the classic OPASYN failure mode is an
/// equation model whose idealized variables drift away from the
/// realizable device sizes.  Cascode blocks multiply their branch's output
/// conductance by lam_c*vov_c/2, add their overdrive to the headroom bill,
/// and (input cascode) append one pole; the nulling resistor moves the
/// Miller zero.
///
/// TwoStageTerms is everything one electrical process contributes: the
/// unity-gain solve reads the poles, the zero and the dc gain (with the
/// filter's hoisted reciprocals), and twoStageValues the rest.
struct TwoStageTerms {
  double i5, i7, gm1, gm3, vov6, vov7, vovc7;
  double av0;           ///< dc loop gain av1 * av2
  double p1, p2, p3, pCasc;
  double z, zInv;       ///< plain-Miller zero, or the nulled zero's inverse
  bool nulled, cascode;  ///< Miller-nulled compensation; input-cascode pole
  // The filter's operands (see aboveUnity).
  double zHat, pHat1, pHat2, pHat3, pHatCasc, av0Sq;
  bool filterable;
};

TwoStageTerms twoStageTerms(const OpampStructure& s, const Process& proc, double loadCap,
                            const ComposedGeometry& g) {
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

  t.zHat = t.nulled ? t.zInv : 1.0 / t.z;
  t.pHat1 = 1.0 / t.p1;
  t.pHat2 = 1.0 / t.p2;
  t.pHat3 = 1.0 / t.p3;
  t.pHatCasc = t.cascode ? 1.0 / t.pCasc : 0.0;
  t.av0Sq = t.av0 * t.av0;
  t.filterable = t.av0 > 0.0 && std::isnormal(t.av0Sq) && std::isnormal(t.zHat) &&
                 std::isnormal(t.pHat1) && std::isnormal(t.pHat2) && std::isnormal(t.pHat3) &&
                 (!t.cascode || std::isnormal(t.pHatCasc));
  return t;
}

/// Open-loop magnitude of the multi-pole / one-zero response at f (Hz).
double magnitude(const TwoStageTerms& t, double f) {
  const double num = t.nulled ? 1.0 + (f * t.zInv) * (f * t.zInv) : 1.0 + (f / t.z) * (f / t.z);
  double den = (1.0 + (f / t.p1) * (f / t.p1)) * (1.0 + (f / t.p2) * (f / t.p2)) *
               (1.0 + (f / t.p3) * (f / t.p3));
  if (t.cascode) den *= 1.0 + (f / t.pCasc) * (f / t.pCasc);
  return t.av0 * std::sqrt(num / den);
}

// The bisection decides each step by `magnitude(mid) > 1`, but most steps
// are far from the crossing, where a cheaper test gives the same answer.
// magnitude(f) > 1 iff av0^2 N(f) > D(f), with
//   N(f) = 1 + (f zHat)^2,   D(f) = prod_i (1 + (f pHat_i)^2),
// zHat = 1/z (or zInv) and pHat_i = 1/p_i hoisted out of the loop: no
// division and no sqrt per step.
//
// Error bound.  In round-to-nearest each side is a short chain of
// products, squares and one-plus terms, so it carries a relative error of
// a few tens of ulp (< 1e-14); the exact test's own rounding in
// magnitude() is ~13 ulp.  The filter decides only when the two sides
// differ by more than kTie = 1e-12 relative, far outside both errors, so
// its decision is the exact test's, bit for bit.  The bound needs every
// operand normal and every term far from overflow (else the exact test
// might overflow where the filter does not): av0 > 0 with a normal av0^2,
// normal reciprocals, and N, D and av0^2 N below kHuge.  Anything else (a
// near tie, a non-finite or denormal operand, av0 <= 0) falls back to the
// exact test.  UgfDifferential.* in tests/composed_topology_test.cpp holds
// the solve bit-equal to the plain 80-step loop.
constexpr double kTie = 1e-12;
constexpr double kHuge = 1e300;
constexpr int kSteps = 80;
constexpr double kUgfCeiling = 1e13;  ///< upper end of the bisection (Hz)

/// The filter's two sides at f, lhs = av0^2 N(f) and d = D(f), and N(f).
struct FilterSides {
  double n, d, lhs;
  bool inRange() const { return n < kHuge && d < kHuge && lhs < kHuge; }
};
FilterSides filterSides(const TwoStageTerms& t, double f) {
  const auto term = [f](double rHat) { return 1.0 + (f * rHat) * (f * rHat); };
  const double n = term(t.zHat);
  double d = term(t.pHat1) * term(t.pHat2) * term(t.pHat3);
  if (t.cascode) d *= term(t.pHatCasc);
  return {n, d, t.av0Sq * n};
}

/// True unity-gain crossing of the multi-pole / one-zero response.  When p2
/// sits near the GBW product the magnitude falls at -40 dB/dec before
/// crossing, so the measured UGF lands well below gm1/(2 pi Cc); reporting
/// the naive GBW here is exactly the kind of model-vs-silicon drift the
/// verification step of section 2.1 exists to catch.
///
/// The only state is (lo, hi): once a step leaves it bit-unchanged, every
/// later step would repeat that step exactly, so the loop stops there.  On
/// seeded points of every two-stage structure that happens after 57 to 59
/// of the 80 steps.  One lane keeps the branchy form: the filter's early
/// exit is what makes it cheap.
double solveUgf(const TwoStageTerms& t) {
  const auto aboveUnity = [&t](double f) {
    if (t.filterable) {
      const FilterSides sides = filterSides(t, f);
      if (sides.inRange()) {
        if (sides.lhs > sides.d * (1.0 + kTie)) return true;
        if (sides.lhs < sides.d * (1.0 - kTie)) return false;
      }
    }
    return magnitude(t, f) > 1.0;
  };
  double lo = t.p1, hi = kUgfCeiling;
  for (int it = 0; it < kSteps; ++it) {
    const double mid = std::sqrt(lo * hi);
    double& side = aboveUnity(mid) ? lo : hi;
    if (std::bit_cast<std::uint64_t>(side) == std::bit_cast<std::uint64_t>(mid)) break;
    side = mid;
  }
  return std::sqrt(lo * hi);
}

/// K solves of solveUgf in lock step, sharing the latency of their serial
/// sqrt chains.  Each lane takes exactly the serial loop's decisions: the
/// filter runs on every lane without branching; on a step where some live
/// lane's filter is undecided, the exact test runs for every live lane (a
/// branch that is false early in the solve and true late, so it predicts
/// well) and a lane takes it only where its own filter was undecided.
/// lo/hi move through bit masks, and a lane stops at its own fixed point.
template <std::size_t K>
void solveUgfLockStep(const TwoStageTerms* t, double* ugf) {
  double lo[K]{}, hi[K]{};
  bool live[K]{};
  for (std::size_t k = 0; k < K; ++k) {
    lo[k] = t[k].p1;
    hi[k] = kUgfCeiling;
    live[k] = true;
  }
  for (int it = 0; it < kSteps; ++it) {
    double mid[K]{};
    bool decided[K]{}, above[K]{};
    bool undecided = false;
    for (std::size_t k = 0; k < K; ++k) {
      mid[k] = std::sqrt(lo[k] * hi[k]);
      // Branch-free, so it runs (meaninglessly) on a lane that is not
      // filterable too; `decided` masks it out.
      const FilterSides f = filterSides(t[k], mid[k]);
      above[k] = f.lhs > f.d * (1.0 + kTie);
      const bool below = f.lhs < f.d * (1.0 - kTie);
      decided[k] = t[k].filterable & f.inRange() & (above[k] | below);
      undecided |= live[k] & !decided[k];
    }
    if (undecided)
      for (std::size_t k = 0; k < K; ++k)
        if (live[k]) {
          const bool exact = magnitude(t[k], mid[k]) > 1.0;
          above[k] = decided[k] ? above[k] : exact;
        }
    bool anyLive = false;
    for (std::size_t k = 0; k < K; ++k) {
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

Performance amplifierPerformance(const AmplifierValues& v) {
  // Inserted in name order, so no insertion moves an entry.
  Performance perf;
  perf.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) perf.emplace(kAmplifierPerformances[i], v[i]);
  return perf;
}

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
  const ComposedGeometry g = composedGeometryFor(s_, x, geometryProc);
  AmplifierValues v{};
  v[kArea] = composedArea(s_, g);
  if (s_.secondStage) {
    const TwoStageTerms t = twoStageTerms(s_, proc_, loadCap_, g);
    twoStageValues(s_, proc_, loadCap_, g, t, solveUgf(t), v);
  } else {
    singleStageValues(s_, proc_, loadCap_, x, g, v);
  }
  return amplifierPerformance(v);
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
      t[k] = twoStageTerms(s, m.process(), m.loadCap(), g);
    }
    switch (n) {
      case 3: solveUgfLockStep<3>(t, ugf); break;
      case 2: solveUgfLockStep<2>(t, ugf); break;
      default: ugf[0] = solveUgf(t[0]); break;
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
