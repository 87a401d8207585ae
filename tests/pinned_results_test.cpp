// Pinned end-to-end results: raw-bit digests of three flows, recorded once
// and compared on every build.  The golden run report pins key names only,
// so a moved bit in selection rules, feasibility bounds, the plan candidate
// or the corner model would otherwise pass unnoticed.  A refactor that must
// not change behaviour keeps these digests; a change that means to move a
// result re-records them and says why.
//
//   * synthesizeAmplifier on the examples/quickstart.cpp specs, legacy space:
//     success, topology, designPoint, cell.areaLambda2;
//   * robustSynthesize over makeTwoStageCornerModel on the
//     bench_claim_corners specs: robust.x and robust.cost;
//   * the same robust synthesis at a seed whose cutting-plane loop used to
//     re-add corners it already had: robust.x, robust.cost, the feasibility
//     verdicts and every robust performance;
//   * one synthesizeBatch of 4 in the generated space: the same fields as the
//     quickstart flow, per design.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bit_digest.hpp"
#include "circuit/process.hpp"
#include "core/flow.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"

namespace {

using namespace amsyn;

constexpr double kLoadCap = 5e-12;

using testutil::BitDigest;

void addFlow(BitDigest& d, const core::FlowResult& r) {
  d.u64(r.success).str(r.topology).reals(r.designPoint).real(r.cell.areaLambda2);
}

}  // namespace

TEST(PinnedResults, QuickstartFlowInTheLegacySpace) {
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 5e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = kLoadCap;
  opts.topologySpace = topology::TopologySpace::Legacy;
  const auto r = core::synthesizeAmplifier(specs, circuit::defaultProcess(), opts);
  EXPECT_TRUE(r.success) << r.failureReason;
  BitDigest d;
  addFlow(d, r);
  EXPECT_EQ(d.hex(), "0x6f88f89fd567039b") << r.topology;
}

TEST(PinnedResults, RobustCornerSynthesis) {
  const auto& nominal = circuit::defaultProcess();
  const manufacture::ModelFactory factory = [&](const circuit::Process& p) {
    return sizing::makeTwoStageCornerModel(p, nominal, kLoadCap);
  };
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  manufacture::RobustOptions opts;
  opts.synthesis.seed = 19;
  const auto r =
      manufacture::robustSynthesize(factory, nominal, manufacture::VariationSpace{}, specs, opts);
  BitDigest d;
  d.reals(r.robust.x).real(r.robust.cost);
  EXPECT_EQ(d.hex(), "0x8d855cd16de87508");
}

// At seed 28520 (a robust_corners benchmark design) the hunts after the first
// re-synthesis only return corners already in the set: the penalty method
// leaves the pm corner a margin of -1.4e-4, inside the cost's feasibility tolerance.
// Stopping there instead of replaying the round must not move a bit.
TEST(PinnedResults, RobustCornerSynthesisThatReplaysRounds) {
  const auto& nominal = circuit::defaultProcess();
  const manufacture::ModelFactory factory = [&](const circuit::Process& p) {
    return sizing::makeTwoStageCornerModel(p, nominal, kLoadCap);
  };
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  manufacture::RobustOptions opts;
  opts.synthesis.seed = 28520;
  const auto r =
      manufacture::robustSynthesize(factory, nominal, manufacture::VariationSpace{}, specs, opts);
  BitDigest d;
  d.reals(r.robust.x).real(r.robust.cost);
  d.u64(r.robust.feasible).u64(r.robustFeasibleAtCorners);
  for (const auto& [name, value] : r.robust.performance) d.str(name).real(value);
  EXPECT_EQ(d.hex(), "0x471e78eef15d702a")
      << r.rounds << " rounds, " << r.activeCorners << " corners";
}

TEST(PinnedResults, GeneratedSpaceBatchOfFour) {
  std::vector<sizing::SpecSet> batch(4);
  batch[0].atLeast("gain_db", 64.0).atLeast("ugf", 3e6).atLeast("pm", 50.0);
  batch[1].atLeast("gain_db", 45.0).atLeast("ugf", 8e6).atLeast("pm", 60.0);
  batch[2].atLeast("gain_db", 72.0).atLeast("ugf", 1.5e6).atLeast("pm", 55.0).atMost("power",
                                                                                     5e-3);
  batch[3].atLeast("gain_db", 84.0).atLeast("ugf", 1e6).atLeast("pm", 50.0);
  for (auto& s : batch) s.atMost("area", 4e-9).minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = kLoadCap;
  opts.topologySpace = topology::TopologySpace::Generated;
  opts.seed = 7;
  const auto results = core::synthesizeBatch(batch, circuit::defaultProcess(), opts);
  ASSERT_EQ(results.size(), batch.size());
  BitDigest d;
  std::string topologies;
  for (const auto& r : results) {
    addFlow(d, r);
    topologies += r.topology + " ";
  }
  EXPECT_EQ(d.hex(), "0x0beb9545ec46cc79") << topologies;
}
