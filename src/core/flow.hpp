// The hierarchical performance-driven design methodology of section 2.1 —
// the loop "most experimental analog CAD systems" run:
//
//   top-down:   topology selection -> specification translation (sizing)
//               -> design verification (simulation)
//   bottom-up:  layout generation -> detailed verification after extraction
//
// with redesign iterations when verification fails at any point, including
// the still-open problem the paper flags in section 3.1: "closing the loop"
// from cell layout back to circuit synthesis.  Here the close is concrete:
// post-layout failures feed measured model/parasitic corrections back into
// the spec bounds handed to the sizer (margin-inflation retargeting) and
// the whole flow re-runs.
//
// The flow itself is a staged graph (core/flowgraph.hpp): each phase above
// is one FlowStage, and a FlowEngine executes the declared stage sequence
// with the redesign loop, retargeting, and calibration feedback as engine
// policy.  synthesizeAmplifier assembles the amplifier stage graph;
// synthesizeBatch, the one batch runner, fans many spec sets across the
// work-stealing pool.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/celllayout.hpp"
#include "core/evalstatus.hpp"
#include "core/resilience.hpp"
#include "core/performances.hpp"
#include "sizing/spec.hpp"
#include "sizing/synth.hpp"
#include "topology/library.hpp"

namespace amsyn::core {

class ExecutionContext;  // core/context.hpp

/// Per-flow design options.  The machinery a flow runs on — wall-clock
/// deadline, default topology space — is not configured here: it is the ContextConfig of the context
/// the flow runs under (core/context.hpp).  Run a flow with a different
/// config by installing a context built from one, or by handing
/// FlowEngine::run a parent.makeChild(cfg).
struct FlowOptions {
  double loadCap = 5e-12;
  std::size_t maxRedesigns = 4;  ///< layout->synthesis loop closures
  sizing::SynthesisOptions synthesis;
  CellLayoutOptions layout;
  std::uint64_t seed = 1;
  /// Candidate space the topology-select stage ranks: the two legacy
  /// cells or the whole generated functional-block composition space
  /// (sizing/blocks.hpp).  Unset = the context's configured space
  /// (ContextConfig::topologySpace, AMSYN_TOPOLOGY_SPACE by default).  Both
  /// spaces carry the legacy cells with the same models and bounds, so
  /// flows whose specs the legacy cells win are identical across spaces.
  std::optional<topology::TopologySpace> topologySpace;
};

/// Record of one verification: measured performances vs the spec verdict.
struct VerificationRecord {
  std::string stage;  ///< "pre-layout" or "post-layout"
  sizing::Performance measured;
  bool passed = false;
};

/// How one stage execution ended (see core/flowgraph.hpp for the stage
/// interface).  Skipped means the stage had nothing to contribute but the
/// attempt continues (e.g. the optimizer found no candidate — the plan
/// provider may still produce one); Failed aborts the attempt and triggers
/// a redesign.
enum class StageStatus : std::uint8_t { Passed, Failed, Skipped };

/// Stable lowercase name ("passed" / "failed" / "skipped").
const char* stageStatusName(StageStatus s);

/// Structured record of one stage execution inside one attempt, appended to
/// FlowResult::stageRecords by the engine and serialized by
/// flowRunReportJson.  `seconds` is the span-derived wall-clock duration —
/// the only nondeterministic field.
struct StageRecord {
  std::string name;       ///< stage name, e.g. "verify-pre-layout"
  std::size_t attempt = 0;
  StageStatus status = StageStatus::Passed;
  std::string detail;     ///< failure/skip reason; empty on pass
  EvalStatus evalStatus = EvalStatus::Ok;
  double seconds = 0.0;
};

struct FlowResult {
  bool success = false;
  std::string topology;
  std::vector<double> designPoint;
  circuit::Netlist schematic;           ///< sized testbench netlist
  CellLayoutResult cell;                ///< layout + extraction
  std::vector<VerificationRecord> verifications;
  /// Per-stage execution trail across all attempts, in execution order.
  std::vector<StageRecord> stageRecords;
  std::size_t redesigns = 0;
  std::string failureReason;
  /// Structured companion to failureReason: which evaluation-machinery
  /// failure (if any) ended the last attempt.  Ok both on success and when
  /// the flow failed for design reasons (specs simply not met).
  EvalStatus failureStatus = EvalStatus::Ok;
};

/// Run the complete amplifier flow: select a topology from the built-in
/// library, size it, verify by simulation, lay it out, extract, verify
/// post-layout, and iterate with retargeted specs if the parasitics broke a
/// spec.  Specs use the standard performance names (gain_db, ugf, pm,
/// power, ...).  Thin wrapper over FlowEngine + amplifierStageGraph()
/// (core/flowgraph.hpp).
FlowResult synthesizeAmplifier(const sizing::SpecSet& specs, const circuit::Process& proc,
                               const FlowOptions& opts = {});

/// The batch runner: run one amplifier flow per spec set, fanned across the
/// shared work-stealing pool.  Deterministic: result i is bit-identical to
/// `synthesizeAmplifier(batch[i], proc, batchItemOptions(opts, i))` at any
/// AMSYN_THREADS (tests/flowgraph_test.cpp proves this differentially).
/// Every design runs in a child of the caller's context, so all of them
/// share its config.
///
/// Every job ends with a result.  The engine contains a throwing stage as a
/// failed stage (internal_error, which redesigns, or out_of_memory, which
/// ends the flow), so one job's exception never abandons the rest of the
/// batch.
std::vector<FlowResult> synthesizeBatch(const std::vector<sizing::SpecSet>& batch,
                                        const circuit::Process& proc,
                                        const FlowOptions& opts = {});

/// The options synthesizeBatch hands design `index`: the base options with
/// the seed moved onto the decorrelated per-task RNG stream
/// num::Rng::streamSeed(base.seed, index).  Exposed so callers (and the
/// differential test) can reproduce any batch entry with a sequential
/// synthesizeAmplifier call.
FlowOptions batchItemOptions(const FlowOptions& base, std::size_t index);

/// Measure an amplifier testbench netlist by simulation (shared by the flow
/// and the benches): gain_db, ugf, pm, power.  One fixed open-loop bench:
/// the AC sweep probes node "out" from 1 Hz to 1 GHz at 6 points/decade.
/// The optional deadline is threaded into every analysis (the flow passes
/// its job deadline, so expiry interrupts a measurement at the next
/// Newton-loop cancel point); a deadline-stopped measurement comes back
/// infeasible with deadline_expired.
sizing::Performance measureAmplifier(const circuit::Netlist& net,
                                     const circuit::Process& proc,
                                     Deadline* deadline = nullptr);

/// Structured JSON run report for a completed flow: outcome, per-stage
/// verification verdicts and stage records, plus the process-wide
/// metrics-registry snapshot and trace-span aggregate (schema in
/// core/runreport.hpp).
std::string flowRunReportJson(const FlowResult& result);

/// Context-sliced variant: additionally emits "ctx.<counter>" values for
/// every metric delta the given execution context recorded (its metrics
/// slice) — the per-tenant view a multi-job daemon reports next to the
/// process-wide snapshot.  With no slice (the ambient context) the output
/// is byte-identical to the single-argument form.
std::string flowRunReportJson(const FlowResult& result, const ExecutionContext& ctx);

}  // namespace amsyn::core
