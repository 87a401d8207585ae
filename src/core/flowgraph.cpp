#include "core/flowgraph.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/context.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "knowledge/opamp_plans.hpp"
#include "sim/stats.hpp"
#include "sizing/blocks.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"
#include "topology/select.hpp"

namespace amsyn::core {

namespace {

/// Spec tolerance the verification stages grant: a measurement within 15%
/// (normalized) of the bound still passes, absorbing model/sim noise.
constexpr double kVerifyTolerance = 0.15;

/// Constraint specs the simulator can actually judge (the shared
/// electrical-performance table).
sizing::SpecSet filterElectrical(const sizing::SpecSet& specs) {
  sizing::SpecSet electrical;
  for (const auto& s : specs.specs()) {
    if (s.isObjective()) continue;
    if (isElectricalPerformance(s.performance))
      electrical.require(s.performance, s.kind, s.bound, s.weight);
  }
  return electrical;
}

/// Failure reason with the structured status appended when one exists.
std::string withStatusSuffix(std::string reason, EvalStatus st) {
  if (st != EvalStatus::Ok) reason += std::string(": ") + evalStatusName(st);
  return reason;
}

/// Counters shared by every flow, registered eagerly so the run-report
/// counter schema does not depend on which entry point ran first.
struct FlowCounters {
  metrics::CounterId attempts;
  metrics::CounterId batchDesigns;     ///< designs submitted to synthesizeBatch
  metrics::CounterId deadlineExpired;  ///< flows terminated by their deadline
  metrics::CounterId planChosen;       ///< pre-layout picks after the first
                                       ///< candidate (the plan's, by default)
};
const FlowCounters& flowCounters() {
  static const FlowCounters ids = {
      metrics::registry().counter("core.flow.attempts"),
      metrics::registry().counter("core.flow.batch.designs"),
      metrics::registry().counter("core.flow.deadline.expired"),
      metrics::registry().counter("core.flow.plan_chosen"),
  };
  return ids;
}

/// Run one stage with its exceptions contained: a throw becomes a failed
/// stage whose status classifies the exception (bad_alloc is out_of_memory,
/// anything else internal_error), tallied once like any contained
/// evaluator exception.  The engine's redesign and OOM rules then apply to
/// it as to any other failure.
StageOutcome runContained(FlowStage& stage, const std::string& spanName,
                          DesignContext& ctx) {
  try {
    AMSYN_SPAN(spanName.c_str());
    return stage.run(ctx);
  } catch (...) {
    const EvalStatus st = classifyCurrentException();
    sim::recordEvalFailure(st);
    return StageOutcome::fail(std::string("stage threw: ") + evalStatusName(st), st);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FlowEngine

FlowEngine::FlowEngine(std::vector<std::unique_ptr<FlowStage>> stages) {
  (void)flowCounters();  // eager registration (schema stability)
  auto& registry = metrics::registry();
  stages_.reserve(stages.size());
  for (auto& stage : stages) {
    StageSlot slot;
    const std::string name = stage->name();
    slot.spanName = "stage." + name;
    slot.runs = registry.counter("core.flow.stage." + name + ".runs");
    slot.failures = registry.counter("core.flow.stage." + name + ".failures");
    slot.stage = std::move(stage);
    stages_.push_back(std::move(slot));
  }
}

sizing::SpecSet FlowEngine::retarget(const sizing::SpecSet& specs,
                                     const Calibration& cal, std::size_t attempt) {
  // Parasitics and model error mainly eat bandwidth and phase margin, so
  // redesigns hand the sizer bounds corrected by what verification actually
  // measured (rather than blind margins), plus a small safety factor that
  // grows per attempt.
  const double safety = 1.0 + 0.05 * static_cast<double>(attempt);
  sizing::SpecSet target;
  for (const auto& s : specs.specs()) {
    if (s.isObjective()) {
      (s.kind == sizing::SpecKind::Minimize)
          ? target.minimize(s.performance, s.weight, s.norm)
          : target.maximize(s.performance, s.weight, s.norm);
      continue;
    }
    double bound = s.bound;
    if (s.kind == sizing::SpecKind::GreaterEqual && s.performance == "ugf")
      bound = bound / std::max(cal.ugfLayoutRatio * cal.ugfModelRatio, 0.2) * safety;
    else if (s.kind == sizing::SpecKind::GreaterEqual && s.performance == "pm")
      bound = std::min(bound + (cal.pmLayoutDelta + cal.pmModelDelta) * safety +
                           2.0 * static_cast<double>(attempt),
                       80.0);
    target.require(s.performance, s.kind, bound, s.weight);
  }
  return target;
}

FlowResult FlowEngine::run(const sizing::SpecSet& specs, const circuit::Process& proc,
                           const FlowOptions& opts) {
  AMSYN_SPAN("flow");
  DesignContext ctx(proc, opts);
  ctx.electrical = filterElectrical(specs);
  Deadline jobDeadline(ExecutionContext::current().config().jobDeadlineMs);
  ctx.jobDeadline = &jobDeadline;

  // Deadline expiry is terminal: the allowance covered the whole job, so no
  // redesign attempt may follow it.
  const auto expireNow = [&](const std::string& where) {
    metrics::add(flowCounters().deadlineExpired);
    ctx.result.success = false;
    ctx.result.failureReason = "job deadline expired at " + where;
    ctx.result.failureStatus = EvalStatus::DeadlineExpired;
  };

  for (std::size_t attempt = 0; attempt <= opts.maxRedesigns; ++attempt) {
    metrics::add(flowCounters().attempts);
    ctx.attempt = attempt;
    if (attempt > 0) ++ctx.result.redesigns;
    ctx.target = retarget(specs, ctx.calibration, attempt);
    ctx.candidates.clear();

    bool attemptFailed = false;
    for (auto& slot : stages_) {
      if (jobDeadline.expired()) {
        expireNow("stage boundary '" + slot.stage->name() + "'");
        return std::move(ctx.result);
      }
      metrics::add(slot.runs);
      const std::uint64_t t0 = trace::monotonicNowNs();
      const StageOutcome outcome = runContained(*slot.stage, slot.spanName, ctx);
      StageRecord record;
      record.name = slot.stage->name();
      record.attempt = attempt;
      record.status = outcome.status;
      record.detail = outcome.detail;
      record.evalStatus = outcome.evalStatus;
      record.seconds = static_cast<double>(trace::monotonicNowNs() - t0) * 1e-9;
      ctx.result.stageRecords.push_back(std::move(record));

      if (outcome.status != StageStatus::Failed) continue;
      metrics::add(slot.failures);
      if (outcome.evalStatus == EvalStatus::DeadlineExpired || jobDeadline.expired()) {
        expireNow("stage '" + slot.stage->name() + "'");
        return std::move(ctx.result);
      }
      ctx.result.failureReason = outcome.detail;
      ctx.result.failureStatus = outcome.evalStatus;
      // Out of memory ends the flow too: a redesign would re-run the
      // allocation pattern that just failed.
      if (outcome.evalStatus == EvalStatus::OutOfMemory) return std::move(ctx.result);
      attemptFailed = true;
      break;  // redesign with the updated calibration
    }
    if (!attemptFailed) {
      ctx.result.success = true;
      ctx.result.failureReason.clear();
      ctx.result.failureStatus = EvalStatus::Ok;
      return std::move(ctx.result);
    }
  }
  return std::move(ctx.result);
}

std::vector<FlowResult> synthesizeBatch(const std::vector<sizing::SpecSet>& batch,
                                        const circuit::Process& proc,
                                        const FlowOptions& opts) {
  AMSYN_SPAN("flow_batch");
  metrics::add(flowCounters().batchDesigns, batch.size());
  // Every job runs under the caller's context: parallelFor installs the
  // submitting thread's context in each task.
  return parallelMap(batch.size(), [&](std::size_t i) {
    FlowEngine engine(amplifierStageGraph());
    return engine.run(batch[i], proc, batchItemOptions(opts, i));
  });
}

// ---------------------------------------------------------------------------
// Concrete stages

StageOutcome TopologySelectStage::run(DesignContext& ctx) {
  const auto& library =
      topology::amplifierLibrary(ctx.proc, ctx.opts.loadCap, ctx.opts.topologySpace);

  sizing::SynthesisOptions sopts = ctx.opts.synthesis;
  sopts.seed = ctx.opts.seed + ctx.attempt;
  // Redesigns chase a progressively tighter corner of the design space;
  // give the annealer a bigger budget each round.
  if (ctx.attempt > 0) {
    sopts.anneal.movesPerStage =
        std::max<std::size_t>(sopts.anneal.movesPerStage, 400 * (ctx.attempt + 1));
    sopts.anneal.stagnationStages = 20;
    sopts.refineEvaluations = std::max<std::size_t>(sopts.refineEvaluations, 800);
  }

  const auto sel = topology::selectAndSize(library, ctx.target, sopts);
  if (!sel.success)
    return StageOutcome::skip("optimization-based sizing produced no candidate");
  CandidateDesign cand;
  cand.structure = library.byName(sel.topology).structure;
  cand.x = sel.sizing.x;
  cand.predicted = sel.sizing.performance;
  ctx.candidates.push_back(std::move(cand));
  return StageOutcome::pass();
}

StageOutcome PlanCandidateStage::run(DesignContext& ctx) {
  // Plan candidate from the retargeted bounds; the first candidate that
  // passes pre-layout verification wins, so this rides alongside the
  // optimizer rather than replacing it.
  const auto planIn = knowledge::opampPlanInputs(ctx.target, ctx.opts.loadCap);
  if (!planIn)
    return StageOutcome::skip("specs carry no gain_db+ugf pair for the design plan");
  const auto plan = knowledge::twoStageOpampPlan();
  const auto pres = plan.execute(ctx.proc, *planIn);
  if (!pres.success) return StageOutcome::skip("design plan backtracking failed");
  CandidateDesign cand;
  cand.structure = sizing::OpampStructure::legacyTwoStage();
  const sizing::ComposedOpampModel model(cand.structure, ctx.proc, ctx.opts.loadCap);
  cand.x = knowledge::extractTwoStageDesign(pres.context);
  cand.predicted = model.evaluate(cand.x);
  ctx.candidates.push_back(std::move(cand));
  return StageOutcome::pass();
}

StageOutcome BuildStage::run(DesignContext& ctx) {
  if (ctx.candidates.empty())
    return StageOutcome::fail("sizing failed to meet the (possibly inflated) specs",
                              EvalStatus::Ok);  // design failure, not machinery
  for (auto& cand : ctx.candidates)
    cand.netlist = sizing::buildComposedOpamp(
        cand.structure, cand.x, ctx.proc, sizing::OpampTestbench{ctx.opts.loadCap, 2.2, true});
  return StageOutcome::pass();
}

StageOutcome VerifyStage::run(DesignContext& ctx) {
  // The verify measurements are the flow's serial simulator work: thread
  // the job deadline into them.
  if (phase_ == VerifyPhase::PreLayout) {
    VerificationRecord pre;
    pre.stage = "pre-layout";
    CandidateDesign* chosen = nullptr;
    for (auto& cand : ctx.candidates) {
      const auto measured = measureAmplifier(cand.netlist, ctx.proc, ctx.jobDeadline);
      const bool passed = !measured.count("_infeasible") &&
                          ctx.electrical.satisfied(measured, kVerifyTolerance);
      // Update the model-calibration terms from this measurement.
      if (measured.count("ugf") && cand.predicted.count("ugf") &&
          cand.predicted.at("ugf") > 0)
        ctx.calibration.ugfModelRatio = measured.at("ugf") / cand.predicted.at("ugf");
      if (measured.count("pm") && cand.predicted.count("pm"))
        ctx.calibration.pmModelDelta =
            std::max(0.0, cand.predicted.at("pm") - measured.at("pm"));
      if (!chosen || passed) {
        pre.measured = measured;
        pre.passed = passed;
        ctx.result.topology = cand.structure.name();
        ctx.result.designPoint = cand.x;
        chosen = &cand;
      }
      if (passed) break;
    }
    if (chosen && chosen != &ctx.candidates.front()) metrics::add(flowCounters().planChosen);
    ctx.result.schematic = chosen ? std::move(chosen->netlist) : circuit::Netlist{};
    ctx.preLayoutMeasured = pre.measured;
    ctx.result.verifications.push_back(pre);
    if (!pre.passed) {
      const EvalStatus st = sizing::performanceStatus(pre.measured);
      return StageOutcome::fail(
          withStatusSuffix("pre-layout verification failed (model/sim mismatch)", st),
          st);
    }
    return StageOutcome::pass();
  }

  // Post-layout: measure the annotated netlist against the same specs and
  // record what the parasitics cost relative to the pre-layout measurement.
  VerificationRecord post;
  post.stage = "post-layout";
  post.measured = measureAmplifier(ctx.result.cell.annotated, ctx.proc, ctx.jobDeadline);
  post.passed = !post.measured.count("_infeasible") &&
                ctx.electrical.satisfied(post.measured, kVerifyTolerance);
  const sizing::Performance& pre = ctx.preLayoutMeasured;
  if (post.measured.count("ugf") && pre.count("ugf") && pre.at("ugf") > 0)
    ctx.calibration.ugfLayoutRatio = post.measured.at("ugf") / pre.at("ugf");
  if (post.measured.count("pm") && pre.count("pm"))
    ctx.calibration.pmLayoutDelta = std::max(0.0, pre.at("pm") - post.measured.at("pm"));
  ctx.result.verifications.push_back(post);
  if (!post.passed) {
    const EvalStatus st = sizing::performanceStatus(post.measured);
    return StageOutcome::fail(
        withStatusSuffix("post-layout verification failed; closing the loop", st), st);
  }
  return StageOutcome::pass();
}

StageOutcome LayoutStage::run(DesignContext& ctx) {
  CellLayoutOptions lopts = ctx.opts.layout;
  lopts.seed = ctx.opts.seed + ctx.attempt;
  ctx.result.cell = layoutCellGeometry(ctx.result.schematic, ctx.proc, lopts);
  if (!ctx.result.cell.success)
    return StageOutcome::fail("cell layout failed (placement/routing)", EvalStatus::Ok);
  return StageOutcome::pass();
}

StageOutcome ExtractStage::run(DesignContext& ctx) {
  extractCell(ctx.result.schematic, ctx.proc, ctx.result.cell);
  return StageOutcome::pass();
}

std::vector<std::unique_ptr<FlowStage>> amplifierStageGraph() {
  std::vector<std::unique_ptr<FlowStage>> stages;
  stages.push_back(std::make_unique<TopologySelectStage>());
  stages.push_back(std::make_unique<PlanCandidateStage>());
  stages.push_back(std::make_unique<BuildStage>());
  stages.push_back(std::make_unique<VerifyStage>(VerifyPhase::PreLayout));
  stages.push_back(std::make_unique<LayoutStage>());
  stages.push_back(std::make_unique<ExtractStage>());
  stages.push_back(std::make_unique<VerifyStage>(VerifyPhase::PostLayout));
  return stages;
}

}  // namespace amsyn::core
