#include "topology/compose.hpp"

#include "knowledge/opamp_plans.hpp"

namespace amsyn::topology {

using circuit::Process;
using sizing::Compensation;
using sizing::OpampStructure;
using sizing::SpecSet;

std::optional<std::vector<double>> composedPlanSeed(const OpampStructure& s,
                                                    const SpecSet& specs,
                                                    const Process& proc, double loadCap) {
  const auto planIn = knowledge::opampPlanInputs(specs, loadCap);
  if (!planIn) return std::nullopt;

  std::vector<double> shared;  // family coordinates, legacy variable order
  if (s.secondStage) {
    const auto plan = knowledge::twoStageOpampPlan();
    const auto res = plan.execute(proc, *planIn);
    if (!res.success) return std::nullopt;
    shared = knowledge::extractTwoStageDesign(res.context);  // i5,i7,vov1,vov3,vov5,vov6,cc
  } else {
    const auto plan = knowledge::otaPlan();
    const auto res = plan.execute(proc, *planIn);
    if (!res.success) return std::nullopt;
    shared = knowledge::extractOtaDesign(res.context);  // i5,vov1,vov3,vov5
  }

  // Scatter the plan outputs into the composed stitch order; cascode
  // overdrives and the nulling ratio take the block defaults (mid-box,
  // deterministic).
  std::vector<double> x;
  std::size_t k = 0;
  x.push_back(shared[k++]);                     // i5
  if (s.secondStage) x.push_back(shared[k++]);  // i7
  x.push_back(shared[k++]);                     // vov1
  x.push_back(shared[k++]);                     // vov3
  x.push_back(shared[k++]);                     // vov5
  if (s.secondStage) x.push_back(shared[k++]);  // vov6
  if (s.inputCascode) x.push_back(0.20);        // vovc1
  if (s.loadCascode) x.push_back(0.25);         // vovc3
  if (s.tailCascode) x.push_back(0.25);         // vovc5
  if (s.sinkCascode) x.push_back(0.25);         // vovc7
  if (s.secondStage) x.push_back(shared[k++]);  // cc
  if (s.comp == Compensation::MillerNulled) x.push_back(1.3);  // rzk
  return x;
}

}  // namespace amsyn::topology
