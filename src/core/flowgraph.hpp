// Staged flow engine: the hierarchical methodology of section 2.1 as a
// pluggable stage graph instead of one monolithic function.
//
// A FlowStage is one phase of the synthesis loop (topology selection,
// candidate planning, netlist build, verification, layout, extraction); a
// FlowEngine executes a declared stage sequence and owns everything that
// used to be inline control flow in core::synthesizeAmplifier:
//
//   * the redesign loop (attempt 0 .. maxRedesigns, early exit on success),
//   * margin-inflation retargeting — each attempt re-derives the spec
//     bounds handed to the sizer from *measured* corrections (the
//     Calibration) plus a growing safety factor,
//   * model-calibration feedback — verify stages record how far the
//     simulator lands from the equation model (pre-layout) and how much
//     the layout parasitics knock off on top (post-layout),
//   * per-stage observability: every stage runs under an AMSYN_SPAN,
//     counts into core.flow.stage.<name>.{runs,failures}, and appends a
//     StageRecord to FlowResult::stageRecords,
//   * the job boundary: one execution per stage per attempt, the job's
//     wall-clock deadline, and exception containment — a stage that throws
//     is a failed stage ("stage threw: <status>"), never an escape.
//
// Candidates travel between stages as their sizing::OpampStructure, the
// topology's identity; the netlist is sizing::buildComposedOpamp of it.
// The amplifier flow is amplifierStageGraph() run by a default-policy
// engine; tests compose their own graphs (the calibration-loop test drives
// the engine with fabricated verify stages).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/resilience.hpp"
#include "sizing/blocks.hpp"
#include "topology/library.hpp"

namespace amsyn::core {

/// Measured model corrections the engine retargets from.  Two independent
/// error terms per performance: modeling error (sim vs equation model,
/// recorded by the pre-layout verify) and layout parasitics (post- vs
/// pre-layout, recorded by the post-layout verify).  UGF losses are ratios
/// (measured/predicted) and compose as a product; PM losses are degrees
/// and compose as a sum.  Each verify overwrites its field, so calibration
/// always reflects the latest measurement.
struct Calibration {
  double ugfModelRatio = 1.0;
  double ugfLayoutRatio = 1.0;
  double pmModelDelta = 0.0;
  double pmLayoutDelta = 0.0;
};

/// One candidate design flowing between the candidate-provider, build, and
/// verify stages of an attempt.
struct CandidateDesign {
  sizing::OpampStructure structure;
  std::vector<double> x;             ///< equation-model coordinates
  sizing::Performance predicted;     ///< model-predicted performances at x
  circuit::Netlist netlist;          ///< filled by BuildStage; the pre-layout
                                     ///< verify moves the chosen one out
};

/// Everything a stage may read or write while one flow runs.  Constructed
/// by the engine per run; per-attempt fields (target, candidates) are reset
/// by the engine at each attempt boundary.
struct DesignContext {
  DesignContext(const circuit::Process& p, const FlowOptions& o) : proc(p), opts(o) {}

  const circuit::Process& proc;
  const FlowOptions& opts;
  std::size_t attempt = 0;
  sizing::SpecSet target;            ///< engine-retargeted specs (per attempt)
  sizing::SpecSet electrical;        ///< simulator-judged constraint subset
  std::vector<CandidateDesign> candidates;  ///< per attempt
  Calibration calibration;           ///< persists across attempts
  /// The latest pre-layout verify's measurement of its chosen candidate
  /// (this attempt's in the standard graph); the post-layout verify
  /// calibrates against it.
  sizing::Performance preLayoutMeasured;
  FlowResult result;                 ///< accumulated output
  /// The job's wall-clock deadline, owned by the engine for the run's
  /// duration (null only before run() installs it).  Stages that do
  /// open-ended numerical work (the verify measurements) thread it into
  /// their analyses so expiry interrupts them at the next strided cancel
  /// point; the engine itself checks expiry at every stage boundary.
  Deadline* jobDeadline = nullptr;
};

/// How a stage ended.  Failed aborts the attempt (detail/evalStatus become
/// FlowResult::failureReason/failureStatus); Skipped continues it.
struct StageOutcome {
  StageStatus status = StageStatus::Passed;
  std::string detail;
  EvalStatus evalStatus = EvalStatus::Ok;

  static StageOutcome pass() { return {}; }
  static StageOutcome skip(std::string why) {
    return {StageStatus::Skipped, std::move(why), EvalStatus::Ok};
  }
  static StageOutcome fail(std::string why, EvalStatus st = EvalStatus::Ok) {
    return {StageStatus::Failed, std::move(why), st};
  }
};

/// One phase of the synthesis loop.  Stages may keep per-run state; a stage
/// object belongs to one engine and one flow configuration at a time.
class FlowStage {
 public:
  virtual ~FlowStage() = default;
  virtual std::string name() const = 0;
  virtual StageOutcome run(DesignContext& ctx) = 0;
};

/// Executes a stage sequence with the redesign loop, retargeting, and
/// calibration feedback as policy.  Engines are cheap: construct one per
/// flow (synthesizeAmplifier does).
class FlowEngine {
 public:
  explicit FlowEngine(std::vector<std::unique_ptr<FlowStage>> stages);

  /// Run the flow: execute the stage sequence up to opts.maxRedesigns + 1
  /// times, retargeting the specs from the calibration before each
  /// attempt.  Success means every stage of an attempt passed (or was
  /// skipped).
  /// The run reads its config — deadline, topology space — from
  /// ExecutionContext::current(); install a ContextScope to run it under
  /// another context.
  FlowResult run(const sizing::SpecSet& specs, const circuit::Process& proc,
                 const FlowOptions& opts);

  /// The amplifier retargeting policy, applied over `cal` to `specs` for
  /// the given attempt (exposed for tests; run() calls this before each
  /// attempt).  With safety = 1 + 0.05 * attempt, a ugf >= bound divides by
  /// the measured model*layout ratio (floored at 0.2, so never more than a
  /// 5x inflation) times safety; a pm >= bound adds the measured degree
  /// losses times safety plus 2 degrees per attempt, capped at 80.  Other
  /// constraints and all objectives pass through unchanged.
  static sizing::SpecSet retarget(const sizing::SpecSet& specs,
                                  const Calibration& cal, std::size_t attempt);

 private:
  struct StageSlot {
    std::unique_ptr<FlowStage> stage;
    std::string spanName;           ///< "stage.<name>", stable for AMSYN_SPAN
    metrics::CounterId runs;
    metrics::CounterId failures;
  };
  std::vector<StageSlot> stages_;
};

// ---------------------------------------------------------------------------
// Concrete amplifier stages.  Exposed so tests and custom flows can compose
// their own graphs; amplifierStageGraph() assembles the standard sequence.

/// Optimizer candidate provider: interval-filter + rule-order the built-in
/// amplifier library, then optimization-based sizing against the retargeted
/// specs (topology::selectAndSize).  Appends at most one candidate; skips
/// when sizing fails (the plan provider may still deliver).
class TopologySelectStage : public FlowStage {
 public:
  std::string name() const override { return "topology-select"; }
  StageOutcome run(DesignContext& ctx) override;
};

/// Knowledge-based candidate provider: maps the retargeted bounds onto the
/// two-stage design plan's inputs (knowledge::opampPlanInputs) and executes
/// it (IDAC/OASYS-style; always well-proportioned, so the equation model
/// tracks the simulator closely on it).
class PlanCandidateStage : public FlowStage {
 public:
  std::string name() const override { return "plan-candidate"; }
  StageOutcome run(DesignContext& ctx) override;
};

/// Build a testbench netlist for every candidate from its structure
/// (sizing::buildComposedOpamp).  Fails the attempt when no candidate
/// exists ("sizing failed to meet the specs").
class BuildStage : public FlowStage {
 public:
  std::string name() const override { return "build"; }
  StageOutcome run(DesignContext& ctx) override;
};

enum class VerifyPhase : std::uint8_t { PreLayout, PostLayout };

/// Simulation-based verification, parameterized on the phase:
///   * PreLayout — measure candidates in order against the electrical
///     specs; the first pass wins (falling back to the first candidate;
///     a later candidate's win counts into core.flow.plan_chosen),
///     records model calibration (sim vs predicted) per measurement;
///   * PostLayout — measure the extracted/annotated netlist, record layout
///     calibration (post vs pre), pass/fail the attempt.
/// Both phases measure with the fixed bench of measureAmplifier.
class VerifyStage : public FlowStage {
 public:
  explicit VerifyStage(VerifyPhase phase) : phase_(phase) {}
  std::string name() const override {
    return phase_ == VerifyPhase::PreLayout ? "verify-pre-layout"
                                            : "verify-post-layout";
  }
  StageOutcome run(DesignContext& ctx) override;

 private:
  VerifyPhase phase_;
};

/// Cell layout (stacking, placement, routing) of the chosen schematic.
/// Fails the attempt when the placement overlaps or routing is incomplete
/// — the extraction stage is then skipped (nothing trustworthy to extract).
class LayoutStage : public FlowStage {
 public:
  std::string name() const override { return "layout"; }
  StageOutcome run(DesignContext& ctx) override;
};

/// Parasitic extraction + back-annotation of the laid-out cell onto the
/// schematic, producing the netlist the post-layout verify stage measures.
class ExtractStage : public FlowStage {
 public:
  std::string name() const override { return "extract"; }
  StageOutcome run(DesignContext& ctx) override;
};

/// The standard amplifier stage sequence (what synthesizeAmplifier runs):
/// topology-select, plan-candidate, build, verify-pre-layout, layout,
/// extract, verify-post-layout.
std::vector<std::unique_ptr<FlowStage>> amplifierStageGraph();

}  // namespace amsyn::core
