#include <gtest/gtest.h>

#include <numeric>

#include "power/grid.hpp"
#include "power/rail.hpp"

namespace pw = amsyn::power;
namespace geom = amsyn::geom;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

/// A synthetic mixed-signal chip: one hot digital DSP, a quieter digital
/// controller, and two sensitive analog blocks.
pw::PowerGridSpec dataChannelSpec() {
  pw::PowerGridSpec s;
  s.chip = geom::Rect::fromSize(0, 0, 20000, 20000);  // 2 x 2 mm at 0.4 um lambda
  s.rows = 6;
  s.cols = 6;
  s.vdd = 5.0;
  s.pads = {{{0, 0}, 0.5, 5e-9}, {{20000, 20000}, 0.5, 5e-9}};
  s.loads = {
      {"dsp", geom::Rect::fromSize(1000, 1000, 8000, 8000), 60e-3, 300e-3, 2e-9, 400e-12,
       false},
      {"ctrl", geom::Rect::fromSize(12000, 1000, 6000, 5000), 20e-3, 100e-3, 2e-9,
       150e-12, false},
      {"adc", geom::Rect::fromSize(1000, 12000, 5000, 6000), 8e-3, 0.0, 2e-9, 200e-12,
       true},
      {"vco", geom::Rect::fromSize(13000, 13000, 4000, 4000), 5e-3, 0.0, 2e-9, 200e-12,
       true},
  };
  return s;
}
}  // namespace

TEST(PowerGrid, BuildsMeshWithExpectedCounts) {
  pw::PowerGrid grid(dataChannelSpec(), proc());
  EXPECT_EQ(grid.nodeCount(), 36u);
  // 6x6 mesh: 2 * 6 * 5 = 60 wires.
  EXPECT_EQ(grid.wires().size(), 60u);
}

TEST(PowerGrid, DcSolveShowsIrDrop) {
  pw::PowerGrid grid(dataChannelSpec(), proc());
  const auto v = grid.dcSolve();
  double vmin = 1e9, vmax = -1e9;
  for (double x : v) {
    vmin = std::min(vmin, x);
    vmax = std::max(vmax, x);
  }
  EXPECT_LT(vmax, 5.0 + 1e-9);  // nothing above the supply
  EXPECT_LT(vmin, vmax);        // a real gradient exists
  EXPECT_GT(vmin, 0.0);         // grid not collapsed
}

TEST(PowerGrid, WideningWiresReducesDrop) {
  pw::PowerGrid grid(dataChannelSpec(), proc());
  pw::applyUniformWidth(grid, 2e-6);
  const auto thin = grid.analyze();
  pw::applyUniformWidth(grid, 20e-6);
  const auto thick = grid.analyze();
  EXPECT_LT(thick.worstDcDropVolts, thin.worstDcDropVolts);
  EXPECT_GT(thick.metalAreaM2, thin.metalAreaM2);
}

TEST(PowerGrid, TransferImpedanceFallsWithFrequencyBeyondDecap) {
  pw::PowerGrid grid(dataChannelSpec(), proc());
  pw::applyUniformWidth(grid, 10e-6);
  const std::size_t victim = grid.nearestNode({1000, 12000});  // adc corner
  const double zLow = grid.transferImpedance("dsp", victim, 1e3);
  const double zHigh = grid.transferImpedance("dsp", victim, 1e9);
  EXPECT_GT(zLow, 0.0);
  // Decoupling caps shunt the grid at high frequency.
  EXPECT_LT(zHigh, zLow);
}

TEST(PowerGrid, AnalysisReportsAllMetrics) {
  pw::PowerGrid grid(dataChannelSpec(), proc());
  const auto a = grid.analyze();
  ASSERT_TRUE(a.solved);
  EXPECT_GT(a.worstDcDropVolts, 0.0);
  EXPECT_GT(a.worstSpikeVolts, 0.0);
  EXPECT_GT(a.worstEmStressRatio, 0.0);
  EXPECT_GT(a.metalAreaM2, 0.0);
  EXPECT_LE(a.worstAnalogDcDropVolts, a.worstDcDropVolts + 1e-12);
  EXPECT_LE(a.worstAnalogSpikeVolts, a.worstSpikeVolts + 1e-12);
}

TEST(Rail, SynthesisMeetsConstraintsBaselineViolates) {
  auto spec = dataChannelSpec();
  pw::PowerGrid grid(spec, proc());
  pw::applyUniformWidth(grid, 2e-6);  // skinny start, like a digital router
  const auto before = grid.analyze();

  pw::RailConstraints cons;
  const auto res = pw::synthesizePowerGrid(grid, cons, proc());
  EXPECT_TRUE(res.constraintsMet)
      << "dc=" << res.final.worstDcDropVolts << " spike=" << res.final.worstSpikeVolts
      << " analogSpike=" << res.final.worstAnalogSpikeVolts
      << " em=" << res.final.worstEmStressRatio;
  // The initial skinny grid must actually have violated something, or the
  // experiment is vacuous.
  EXPECT_FALSE(pw::meets(before, cons));
  EXPECT_LE(res.final.worstDcDropVolts, cons.maxDcDropVolts + 1e-9);
}

TEST(Rail, ShrinkPassRecoversArea) {
  // The area-recovery pass narrows a wire only while every constraint still
  // holds, so a grid that closes before it still closes after it.
  auto spec = dataChannelSpec();
  pw::PowerGrid grid(spec, proc());
  pw::applyUniformWidth(grid, 2e-6);
  pw::RailConstraints cons;
  const auto res = pw::synthesizePowerGrid(grid, cons, proc());
  EXPECT_TRUE(res.constraintsMet);
}

TEST(Rail, EmViolationGetsFixed) {
  auto spec = dataChannelSpec();
  // Crank the DSP current so EM dominates.
  spec.loads[0].avgCurrent = 200e-3;
  pw::PowerGrid grid(spec, proc());
  pw::applyUniformWidth(grid, 1.5e-6);
  EXPECT_GT(grid.analyze().worstEmStressRatio, 1.0);
  pw::RailConstraints cons;
  cons.maxDcDropVolts = 0.5;  // relax others; isolate EM
  cons.maxSpikeVolts = 2.0;
  cons.maxAnalogSpikeVolts = 2.0;
  const auto res = pw::synthesizePowerGrid(grid, cons, proc());
  EXPECT_LE(res.final.worstEmStressRatio, 1.0 + 1e-9);
}
