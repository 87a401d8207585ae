// Cross-module integration tests: scenarios that span frontend, backend and
// substrates, checking that independent engines agree on the same circuit.
#include <gtest/gtest.h>

#include <cmath>

#include "awe/awe.hpp"
#include "core/celllayout.hpp"
#include "core/flow.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"
#include "symbolic/analyze.hpp"
#include "symbolic/linearize.hpp"

namespace {
using namespace amsyn;
const circuit::Process& proc() { return circuit::defaultProcess(); }
}  // namespace

// Three independent linear-analysis engines — direct complex MNA, AWE
// moment-matching, and symbolic analysis — must agree on the identical
// amplifier at every frequency where their assumptions hold.
TEST(TriEngineConsistency, SimAweSymbolicAgreeOnAmplifier) {
  auto net = circuit::Netlist();
  net.addVSource("VDD", "vdd", "0", 5.0);
  net.addVSource("VG", "g", "0", 1.05, 1.0);
  net.addResistor("RD", "vdd", "out", 50e3);
  net.addMos("M1", "out", "g", "0", "0", circuit::MosType::Nmos, 40e-6, 2e-6);
  net.addCapacitor("CL", "out", "0", 3e-12);

  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);

  const auto awem = awe::aweTransfer(mna, op, "out", 3);
  const auto lin = symbolic::linearize(mna, op);
  const auto h = symbolic::voltageTransfer(lin.circuit, lin.node("g"), lin.node("out"));

  for (double f : {1e2, 1e4, 1e6, 3e7}) {
    const double simMag = std::abs(sim::acTransfer(mna, op, "out", f));
    const double aweMag = awem.magnitudeAt(f);
    const double symMag = h.magnitudeAt(lin.circuit.symbols(), f);
    EXPECT_NEAR(aweMag, simMag, simMag * 0.03) << "AWE vs sim at " << f;
    EXPECT_NEAR(symMag, simMag, simMag * 0.03) << "symbolic vs sim at " << f;
  }
}

// Extracted parasitics must degrade (never improve) the amplifier bandwidth.
TEST(LayoutInTheLoop, ParasiticsOnlyEverSlowTheAmplifier) {
  const auto net = sizing::buildTwoStageOpamp(sizing::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions opts;
  opts.annealPlacement = false;
  const auto cell = core::layoutCell(net, proc(), opts);
  ASSERT_TRUE(cell.success);

  const auto pre = core::measureAmplifier(net, proc());
  const auto post = core::measureAmplifier(cell.annotated, proc());
  ASSERT_FALSE(pre.count("_infeasible"));
  ASSERT_FALSE(post.count("_infeasible"));
  EXPECT_LE(post.at("ugf"), pre.at("ugf") * 1.02);
  EXPECT_GT(post.at("ugf"), pre.at("ugf") * 0.2);  // but not absurdly so
}

// OTA-topology flow: modest specs should pick the simpler amplifier and
// still complete layout + post-layout verification.
TEST(FlowOtaPath, ModestSpecsSelectOtaAndComplete) {
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 36.0)
      .atLeast("ugf", 1e7)
      .atLeast("pm", 60.0)
      .atMost("power", 4e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 3;
  opts.layout.annealPlacement = false;
  const auto res = core::synthesizeAmplifier(specs, proc(), opts);
  ASSERT_TRUE(res.success) << res.failureReason;
  EXPECT_EQ(res.topology, "five-transistor-ota");
}
