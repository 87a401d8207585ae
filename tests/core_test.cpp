#include <gtest/gtest.h>

#include <sstream>

#include "core/celllayout.hpp"
#include "core/flow.hpp"
#include "core/report.hpp"
#include "sizing/opamp.hpp"

namespace core = amsyn::core;
namespace ckt = amsyn::circuit;
namespace sz = amsyn::sizing;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }
}

TEST(Report, TableFormatsColumns) {
  core::Table t({"metric", "spec", "got"});
  t.addRow({"gain", ">= 60", core::Table::num(72.5)});
  t.addRow({"power", "min", core::Table::num(1.2e-3)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("gain"), std::string::npos);
  EXPECT_NE(s.find("72.5"), std::string::npos);
  EXPECT_NE(s.find("0.0012"), std::string::npos);
}

TEST(CellLayout, LaysOutTwoStageOpamp) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions opts;
  opts.annealPlacement = false;  // deterministic and fast for the unit test
  const auto res = core::layoutCell(net, proc(), opts);
  ASSERT_TRUE(res.success) << "placement overlapFree=" << res.placement.overlapFree
                           << " allRouted=" << res.routing.allRouted;
  EXPECT_GT(res.areaLambda2, 0.0);
  EXPECT_GT(res.wirelengthLambda, 0.0);
  // All 8 transistors + Cc must appear in some component.
  EXPECT_GE(res.placement.instances.size(), 3u);
  // The testbench elements must NOT be in the layout.
  for (const auto& inst : res.placement.instances) {
    EXPECT_EQ(inst.name.find("RFB"), std::string::npos);
    EXPECT_EQ(inst.name.find("CFB"), std::string::npos);
  }
}

TEST(CellLayout, StackingAbsorbsSharedDiffusions) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions with, without;
  with.useStacking = true;
  with.annealPlacement = false;
  without.useStacking = false;
  without.annealPlacement = false;
  const auto rWith = core::layoutCell(net, proc(), with);
  const auto rWithout = core::layoutCell(net, proc(), without);
  EXPECT_GT(rWith.stackedDevices, 0u);
  EXPECT_EQ(rWithout.stackedDevices, 0u);
  // Fewer placement components when stacks absorb devices.
  EXPECT_LT(rWith.placement.instances.size(), rWithout.placement.instances.size());
}

TEST(CellLayout, MatchingConstraintsDetected) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions opts;
  opts.annealPlacement = false;
  const auto res = core::layoutCell(net, proc(), opts);
  bool hasPair = false;
  for (const auto& mc : res.matching)
    if (mc.kind == amsyn::extract::MatchKind::DifferentialPair) hasPair = true;
  EXPECT_TRUE(hasPair);
}

TEST(CellLayout, ExtractionAnnotatesNetlist) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions opts;
  opts.annealPlacement = false;
  const auto res = core::layoutCell(net, proc(), opts);
  ASSERT_TRUE(res.success);
  EXPECT_GT(res.annotated.devices().size(), net.devices().size());
}

TEST(Flow, MeasureAmplifierReportsCorePerformances) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  const auto perf = core::measureAmplifier(net, proc());
  ASSERT_FALSE(perf.count("_infeasible"));
  EXPECT_GT(perf.at("gain_db"), 40.0);
  EXPECT_GT(perf.at("ugf"), 1e5);
  EXPECT_GT(perf.at("power"), 0.0);
}

TEST(Flow, EndToEndAmplifierSynthesis) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 62.0)
      .atLeast("ugf", 2e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.2, 1e-3);
  core::FlowOptions opts;
  opts.seed = 7;
  opts.layout.annealPlacement = false;  // keep the test fast
  const auto res = core::synthesizeAmplifier(specs, proc(), opts);
  ASSERT_TRUE(res.success) << res.failureReason;
  EXPECT_EQ(res.topology, "two-stage-miller");
  ASSERT_GE(res.verifications.size(), 2u);
  EXPECT_EQ(res.verifications.front().stage, "pre-layout");
  EXPECT_EQ(res.verifications.back().stage, "post-layout");
  EXPECT_TRUE(res.verifications.back().passed);
  // The post-layout UGF must still be measured (parasitics included).
  EXPECT_GT(res.verifications.back().measured.at("ugf"), 1e6);
}
