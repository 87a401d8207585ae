#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

#include "bit_digest.hpp"
#include "manufacture/corners.hpp"
#include "numeric/rng.hpp"
#include "reference/handwritten_opamp.hpp"
#include "sim/ac.hpp"
#include "sizing/builders.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sizing/cost.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"
#include "sizing/relaxed.hpp"
#include "sizing/simmodel.hpp"
#include "sizing/synth.hpp"

namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;
namespace mf = amsyn::manufacture;
namespace num = amsyn::num;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

/// The two-stage Miller opamp's equation model.
sz::ComposedOpampModel twoStageModel() {
  return {sz::OpampStructure::legacyTwoStage(), proc(), 5e-12};
}
}

TEST(Spec, ViolationSemantics) {
  sz::Spec ge{"gain_db", sz::SpecKind::GreaterEqual, 60.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(ge.violation(70.0), 0.0);
  EXPECT_NEAR(ge.violation(54.0), 0.1, 1e-12);  // (60-54)/60
  sz::Spec le{"power", sz::SpecKind::LessEqual, 1e-3, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(le.violation(0.5e-3), 0.0);
  EXPECT_NEAR(le.violation(2e-3), 1.0, 1e-12);
}

TEST(Spec, SetSatisfaction) {
  sz::SpecSet s;
  s.atLeast("gain_db", 60).atMost("power", 1e-3).minimize("area");
  EXPECT_TRUE(s.satisfied({{"gain_db", 65.0}, {"power", 0.5e-3}}));
  EXPECT_FALSE(s.satisfied({{"gain_db", 55.0}, {"power", 0.5e-3}}));
  EXPECT_FALSE(s.satisfied({{"power", 0.5e-3}}));  // missing perf = violation
  EXPECT_GT(s.totalViolation({{"gain_db", 30.0}, {"power", 2e-3}}), 1.0);
}

TEST(EquationModel, ProducesSanePerformances) {
  const auto model = twoStageModel();
  const auto x = model.initialPoint();
  const auto perf = model.evaluate(x);
  EXPECT_GT(perf.at("gain_db"), 40.0);
  EXPECT_GT(perf.at("ugf"), 1e5);
  EXPECT_GT(perf.at("pm"), 0.0);
  EXPECT_LT(perf.at("pm"), 120.0);
  EXPECT_GT(perf.at("power"), 0.0);
  EXPECT_GT(perf.at("swing"), 1.0);
  EXPECT_GT(perf.at("noise_nv"), 0.0);
}

TEST(EquationModel, UgfIsBoundedByGainBandwidthProduct) {
  // The reported UGF is the true unity-gain crossing of the multi-pole
  // response: at or below the naive gm1/(2 pi Cc) GBW product, and within
  // a factor of ~2 of it for a reasonably compensated design.
  const auto model = twoStageModel();
  auto x = model.initialPoint();
  const double i5 = x[0], vov1 = x[2], cc = x[6];
  const double gbw = (i5 / vov1) / (2 * M_PI * cc);
  const auto perf = model.evaluate(x);
  EXPECT_LE(perf.at("ugf"), gbw * 1.001);
  EXPECT_GT(perf.at("ugf"), gbw * 0.3);
}

TEST(EquationModel, MatchesSimulationWithinModelingError) {
  // The whole point of the shared parameter block: an equation-model design
  // must verify in the simulator with only first-order discrepancies
  // (factor ~2 in gain, ~30% in UGF).
  const auto model = twoStageModel();
  std::vector<double> x = {100e-6, 300e-6, 0.2, 0.3, 0.3, 0.3, 3e-12};
  const auto eqPerf = model.evaluate(x);
  auto net = sz::buildComposedOpamp(model.structure(), x, proc(), {});
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e9, 6));
  const double simGain = sim::dcGainDb(sweep);
  const auto simUgf = sim::unityGainFrequency(sweep);
  ASSERT_TRUE(simUgf.has_value());

  EXPECT_NEAR(simGain, eqPerf.at("gain_db"), 12.0);  // within ~1 decade of gain
  EXPECT_NEAR(std::log10(*simUgf), std::log10(eqPerf.at("ugf")), 0.35);
}

TEST(CostFunction, PenalizesViolationsQuadratically) {
  const auto model = twoStageModel();
  sz::SpecSet impossible;
  impossible.atLeast("gain_db", 1e9);  // unreachable
  sz::SpecSet easy;
  easy.atLeast("gain_db", 10.0);
  const sz::CostFunction cHard(model, impossible);
  const sz::CostFunction cEasy(model, easy);
  const auto x = model.initialPoint();
  EXPECT_GT(cHard(x), cEasy(x));
  EXPECT_TRUE(cEasy.detailed(x).feasible);
  EXPECT_FALSE(cHard.detailed(x).feasible);
}

TEST(CostFunction, ObjectiveOrdersDesigns) {
  const auto model = twoStageModel();
  sz::SpecSet s;
  s.minimize("power", 1.0, 1e-3);
  const sz::CostFunction cost(model, s);
  auto xLow = model.initialPoint();
  auto xHigh = xLow;
  xHigh[0] *= 8;  // more tail current -> more power
  xHigh[1] *= 8;
  EXPECT_LT(cost(xLow), cost(xHigh));
}

TEST(Synthesis, EquationModelMeetsModerateSpecs) {
  const auto model = twoStageModel();
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 5e6)
      .atLeast("pm", 55.0)
      .atLeast("slew", 5e6)
      .atMost("power", 5e-3)
      .minimize("power", 0.5, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 3;
  const auto res = sz::synthesize(model, specs, opts);
  EXPECT_TRUE(res.feasible) << "gain=" << res.performance.at("gain_db")
                            << " ugf=" << res.performance.at("ugf")
                            << " pm=" << res.performance.at("pm");
  EXPECT_GE(res.performance.at("gain_db"), 65.0 - 1e-6);
  EXPECT_GT(res.evaluations, 100u);
}

TEST(Synthesis, MinimizePowerActuallyReducesIt) {
  const auto model = twoStageModel();
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("pm", 45.0).minimize("power", 2.0, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 5;
  const auto res = sz::synthesize(model, specs, opts);
  ASSERT_TRUE(res.feasible);
  // Unconstrained initial point burns ~1 mW; optimizer should go well below.
  const auto initPerf = model.evaluate(model.initialPoint());
  EXPECT_LT(res.performance.at("power"), initPerf.at("power"));
}

TEST(SimulationModel, EvaluatesDefaultOpamp) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::SimulationModel model(std::move(tmpl), proc());
  std::vector<double> x = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};
  const auto perf = model.evaluate(x);
  ASSERT_FALSE(perf.count("_infeasible"))
      << "sim model infeasible at a known-good design";
  EXPECT_GT(perf.at("gain_db"), 40.0);
  EXPECT_GT(perf.at("ugf"), 1e6);
  EXPECT_GT(perf.at("pm"), 0.0);
  EXPECT_GT(perf.at("power"), 0.0);
  EXPECT_GT(perf.at("slew"), 1e5);
  EXPECT_EQ(model.evaluations(), 1u);
}

TEST(SimulationModel, InfeasibleOnAbsurdSizes) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::SimulationModel model(std::move(tmpl), proc());
  // Tiny devices and huge cc: no unity-gain crossing above 1 Hz expected,
  // or the bias fails — either way it must be flagged, not crash.
  std::vector<double> x = {1.6e-6, 1.6e-6, 1.6e-6, 1.6e-6, 1.6e-6, 2e-11, 2e-6};
  const auto perf = model.evaluate(x);
  SUCCEED();  // no throw is the contract; _infeasible may or may not be set
  (void)perf;
}

TEST(RelaxedDc, InitialPointHasTinyResidual) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::RelaxedDcModel model(std::move(tmpl), proc());
  const auto x0 = model.initialPoint();
  const auto perf = model.evaluate(x0);
  ASSERT_TRUE(perf.count("_dc_residual"));
  EXPECT_LT(perf.at("_dc_residual"), 1e-2);  // warm start is a solved bias
  EXPECT_GT(perf.at("gain_db"), 20.0);       // AWE sees a real amplifier
}

TEST(RelaxedDc, ResidualGrowsWhenBiasPerturbed) {
  auto tmpl = sz::twoStageTemplate(proc(), {});
  sz::RelaxedDcModel model(std::move(tmpl), proc());
  auto x = model.initialPoint();
  auto xBad = x;
  for (std::size_t i = model.templateDimension(); i < xBad.size(); ++i) xBad[i] += 0.4;
  EXPECT_GT(model.evaluate(xBad).at("_dc_residual"),
            10.0 * model.evaluate(x).at("_dc_residual"));
}

TEST(OpampTemplates, OtaBuildsAndBiases) {
  const amsyn::reference::OtaParams p;
  auto net = amsyn::reference::buildOta(p, proc(), {});
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e9, 6));
  EXPECT_GT(sim::dcGainDb(sweep), 30.0);  // a healthy OTA has > 30 dB
}

TEST(OpampTemplates, AreaScalesWithWidths) {
  sz::TwoStageParams small, big = small;
  big.w1 *= 4;
  big.w6 *= 4;
  EXPECT_GT(big.activeArea(proc()), small.activeArea(proc()));
}

TEST(NetlistBuilders, RegistryCoversTheBuiltInTopologiesAndMatchesDirectBuilds) {
  auto& reg = sz::NetlistBuilderRegistry::instance();
  for (const auto& s : sz::enumerateOpampStructures())
    EXPECT_NE(reg.find(s.name()), nullptr) << s.name();
  EXPECT_NE(reg.find("two-stage-miller"), nullptr);
  EXPECT_NE(reg.find("five-transistor-ota"), nullptr);
  EXPECT_EQ(reg.find("no-such-topology"), nullptr);

  // The registered builder is the same construction as the hand-written
  // template it replaced.
  const sz::OpampTestbench tb{5e-12, 2.2, true};
  const amsyn::reference::OtaEquationModel model(proc(), tb.loadCap);
  std::vector<double> x;
  for (const auto& v : model.variables()) x.push_back(std::sqrt(v.lo * v.hi));
  const auto* builder = reg.find("five-transistor-ota");
  ASSERT_NE(builder, nullptr);
  const auto viaRegistry = (*builder)(x, proc(), tb);
  const auto direct = amsyn::reference::buildOta(model.toParams(x), proc(), tb);
  EXPECT_EQ(viaRegistry.devices().size(), direct.devices().size());
  EXPECT_EQ(viaRegistry.totalGateArea(), direct.totalGateArea());
}

// ---------------------------------------------------------------------------
// Performance payload: the map semantics every evaluator and consumer
// relies on — key-ordered iteration, first-insert-wins emplace (the "first
// failure reason sticks" rule of markInfeasible), default-inserting
// operator[], erase, throwing at(), and value equality.

TEST(PerformancePayload, IteratesInKeyOrderOnRandomKeySets) {
  num::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    sz::Performance perf;
    std::map<std::string, double> expect;
    const int n = 1 + static_cast<int>(rng.uniform() * 24);
    for (int i = 0; i < n; ++i) {
      std::string key;
      const int len = static_cast<int>(rng.uniform() * 6);
      for (int c = 0; c < len; ++c) key += static_cast<char>('_' + rng.uniform() * 28);
      const double v = rng.uniform();
      if (i % 3 == 0) {
        perf[key] = v;
        expect[key] = v;
      } else {
        perf.emplace(key, v);
        expect.emplace(key, v);
      }
    }
    ASSERT_EQ(perf.size(), expect.size());
    auto it = expect.begin();
    for (const auto& [name, value] : perf) {
      EXPECT_EQ(name, it->first);
      EXPECT_EQ(value, it->second);
      ++it;
    }
  }
}

TEST(PerformancePayload, EmplaceNeverOverwrites) {
  sz::Performance perf{{"gain_db", 60.0}};
  const auto [it, inserted] = perf.emplace("gain_db", 1.0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, 60.0);
  EXPECT_EQ(perf.at("gain_db"), 60.0);

  // markInfeasible: the first failure reason sticks.
  sz::markInfeasible(perf, amsyn::core::EvalStatus::NanDetected);
  sz::markInfeasible(perf, amsyn::core::EvalStatus::InternalError);
  EXPECT_EQ(sz::performanceStatus(perf), amsyn::core::EvalStatus::NanDetected);
  EXPECT_EQ(perf.at("_infeasible"), 1.0);
  EXPECT_EQ(perf.size(), 3u);
}

TEST(PerformancePayload, SubscriptEraseAtAndEqualityBehaveAsTheMap) {
  sz::Performance perf;
  EXPECT_TRUE(perf.empty());
  EXPECT_EQ(perf["ugf"], 0.0);  // default-inserts
  EXPECT_EQ(perf.count("ugf"), 1u);
  perf["ugf"] = 2e6;
  perf["area"] = 1e-9;
  EXPECT_EQ(perf.begin()->first, "area");
  EXPECT_THROW(perf.at("pm"), std::out_of_range);
  EXPECT_EQ(perf.find("pm"), perf.end());
  EXPECT_EQ(perf.erase("pm"), 0u);
  EXPECT_EQ(perf.erase("area"), 1u);
  EXPECT_EQ(perf.count("area"), 0u);
  EXPECT_EQ(perf.size(), 1u);

  const sz::Performance a{{"pm", 60.0}, {"gain_db", 70.0}};
  const sz::Performance b{{"gain_db", 70.0}, {"pm", 60.0}};
  EXPECT_TRUE(a == b);
  sz::Performance c = a;
  c["pm"] = 61.0;
  EXPECT_FALSE(a == c);
  c.erase("pm");
  EXPECT_FALSE(a == c);
  const sz::Performance dup{{"pm", 1.0}, {"pm", 2.0}};  // first of duplicates wins
  EXPECT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup.at("pm"), 1.0);
  perf.clear();
  EXPECT_TRUE(perf.empty());
}

// ---------------------------------------------------------------------------
// Evaluation goldens: raw-bit pins of the cost-evaluation path.  Each digest
// covers every key and every value bit of every Performance, in iteration
// order: ComposedOpampModel::evaluate for every composed structure at
// seeded interior points and at all box corners, the two-stage corner
// model at every corner-hunt vertex, and CostFunction::detailed (cost,
// penalty, objective, feasibility, status and the full payload) through
// safeEvaluate, failure paths included.  A change that must not move
// evaluation results keeps these; one that means to re-records them and
// says why.

namespace {
using amsyn::testutil::BitDigest;

void addPerformance(BitDigest& d, const sz::Performance& perf) {
  d.u64(perf.size());
  for (const auto& [name, value] : perf) d.str(name).real(value);
}

std::vector<double> seededInteriorPoint(const std::vector<sz::DesignVariable>& vars,
                                        num::Rng& rng) {
  std::vector<double> x(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const double u = rng.uniform();
    const auto& v = vars[i];
    x[i] = (v.logScale && v.lo > 0) ? v.lo * std::pow(v.hi / v.lo, u)
                                    : v.lo + u * (v.hi - v.lo);
  }
  return x;
}

std::vector<double> boxCorner(const std::vector<sz::DesignVariable>& vars, std::size_t mask) {
  std::vector<double> x(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) x[i] = (mask >> i) & 1 ? vars[i].hi : vars[i].lo;
  return x;
}

/// Every composed structure, then the two legacy cells by their own names.
std::vector<sz::OpampStructure> goldenStructures() {
  auto out = sz::enumerateOpampStructures();
  out.push_back(sz::OpampStructure::legacyOta());
  out.push_back(sz::OpampStructure::legacyTwoStage());
  return out;
}

std::vector<ckt::Process> cornerHuntVertices() {
  const mf::VariationSpace space;
  std::vector<ckt::Process> out;
  for (std::size_t mask = 0; mask < (std::size_t{1} << mf::VariationSpace::kDims); ++mask) {
    std::vector<double> c(mf::VariationSpace::kDims);
    for (std::size_t d = 0; d < c.size(); ++d) c[d] = (mask >> d) & 1 ? 1.0 : 0.0;
    out.push_back(space.apply(proc(), c));
  }
  return out;
}

/// Throws on a negative first coordinate: exercises safeEvaluate's catch.
class ThrowingModel : public sz::PerformanceModel {
 public:
  const std::vector<sz::DesignVariable>& variables() const override { return vars_; }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    if (x[0] < 0.0) throw std::runtime_error("negative");
    return {{"gain_db", 50.0 + x[0]}, {"power", 1e-3 * x[0]}, {"ugf", 1e6}};
  }

 private:
  std::vector<sz::DesignVariable> vars_{{"a", 0.5, 2.0, true}};
};

std::string costDigest(const sz::PerformanceModel& model, std::uint64_t seed) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 70.0)
      .atLeast("ugf", 5e6)
      .atLeast("pm", 60.0)
      .atMost("power", 2e-3)
      .minimize("area", 1.0, 1e-9);
  const sz::CostFunction cost(model, specs);
  num::Rng rng(seed);
  std::vector<std::vector<double>> xs{model.initialPoint()};
  for (int p = 0; p < 48; ++p) xs.push_back(seededInteriorPoint(model.variables(), rng));
  // Out-of-box points: negative, zero and NaN coordinates poison the
  // equations and must come back as infeasible data, never as an abort.
  for (const double v : {-1.0, 0.0, std::nan("")}) {
    auto x = model.initialPoint();
    x.back() = v;
    xs.push_back(x);
    x.front() = v;
    xs.push_back(x);
  }
  BitDigest d;
  for (const auto& x : xs) {
    const auto det = cost.detailed(x);
    d.real(det.cost).real(det.penalty).real(det.objective).u64(det.feasible).u64(
        static_cast<std::uint64_t>(det.status));
    addPerformance(d, det.performance);
  }
  return d.hex();
}

}  // namespace

TEST(EvalGoldens, ComposedModelsAtSeededInteriorPoints) {
  BitDigest d;
  std::uint64_t seed = 1;
  for (const auto& s : goldenStructures()) {
    const sz::ComposedOpampModel model(s, proc(), 5e-12);
    num::Rng rng(seed++);
    d.str(s.name());
    addPerformance(d, model.evaluate(model.initialPoint()));
    for (int p = 0; p < 64; ++p)
      addPerformance(d, model.evaluate(seededInteriorPoint(model.variables(), rng)));
  }
  EXPECT_EQ(d.hex(), "0x7932484ad1ef8de6");
}

TEST(EvalGoldens, ComposedModelsAtBoxCorners) {
  BitDigest d;
  for (const auto& s : goldenStructures()) {
    const sz::ComposedOpampModel model(s, proc(), 5e-12);
    d.str(s.name());
    for (std::size_t mask = 0; mask < (std::size_t{1} << model.dimension()); ++mask)
      addPerformance(d, model.evaluate(boxCorner(model.variables(), mask)));
  }
  EXPECT_EQ(d.hex(), "0x6c18b15676b9b630");
}

TEST(EvalGoldens, TwoStageCornerModelAtCornerHuntVertices) {
  const auto vertices = cornerHuntVertices();
  ASSERT_EQ(vertices.size(), 64u);
  BitDigest d;
  num::Rng rng(29);
  for (const auto& corner : vertices) {
    const auto model = sz::makeTwoStageCornerModel(corner, proc(), 5e-12);
    addPerformance(d, model->evaluate(model->initialPoint()));
    for (int p = 0; p < 16; ++p)
      addPerformance(d, model->evaluate(seededInteriorPoint(model->variables(), rng)));
  }
  EXPECT_EQ(d.hex(), "0xd9c346aff29a7b32");
}

TEST(EvalGoldens, CostFunctionDetailed) {
  const auto vertices = cornerHuntVertices();
  const auto cornerModel = sz::makeTwoStageCornerModel(vertices[37], proc(), 5e-12);
  sz::OpampStructure nulledCascode = sz::OpampStructure::legacyTwoStage();
  nulledCascode.inputCascode = true;
  nulledCascode.sinkCascode = true;
  nulledCascode.comp = sz::Compensation::MillerNulled;
  EXPECT_EQ(costDigest(twoStageModel(), 41), "0xd87b5d1751507dc8");
  EXPECT_EQ(costDigest(sz::ComposedOpampModel(sz::OpampStructure::legacyOta(), proc(), 5e-12), 43),
            "0x432eb31f4e271c98");
  EXPECT_EQ(costDigest(sz::ComposedOpampModel(nulledCascode, proc(), 5e-12), 47),
            "0xe8ecc1da3f4075d5");
  EXPECT_EQ(costDigest(*cornerModel, 53), "0x7f1e87fae9b3af48");
  EXPECT_EQ(costDigest(ThrowingModel{}, 59), "0xea2e0517369985a2");
}

// Raw simulator bits: SimulationModel::evaluate on the two-stage template
// (noise on) at its initial point and three seeded interior points, then
// the DC operating point and one AC sweep of a deck that stamps every
// element kind the DC and AC assemblers treat apart: capacitor, inductor,
// current source and MOS.
TEST(EvalGoldens, SimulationModelAtSeededPoints) {
  BitDigest d;
  const sz::SimulationModel model(sz::twoStageTemplate(proc(), {}), proc());
  num::Rng rng(61);
  addPerformance(d, model.evaluate(model.initialPoint()));
  for (int p = 0; p < 3; ++p)
    addPerformance(d, model.evaluate(seededInteriorPoint(model.variables(), rng)));

  ckt::Netlist net;
  net.addVSource("VDD", "vdd", "0", 5.0);
  net.addISource("IB", "vdd", "d", 40e-6, 1.0);
  net.addMos("M1", "d", "d", "0", "0", ckt::MosType::Nmos, 20e-6, 2e-6);
  net.addInductor("L1", "d", "out", 1e-3);
  net.addResistor("RL", "out", "0", 200e3);
  net.addCapacitor("CL", "out", "0", 1e-12);
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  d.u64(op.converged).u64(static_cast<std::uint64_t>(op.status)).u64(op.iterations);
  d.str(op.strategy).reals(op.x);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1e3, 1e9, 5));
  d.u64(static_cast<std::uint64_t>(sweep.status)).u64(sweep.points.size());
  for (const auto& pt : sweep.points)
    d.real(pt.frequency).real(pt.value.real()).real(pt.value.imag());
  EXPECT_EQ(d.hex(), "0x738183cb96a030db");
}
