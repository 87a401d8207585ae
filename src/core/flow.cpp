#include "core/flow.hpp"

#include <utility>

#include "core/flowgraph.hpp"
#include "core/runreport.hpp"
#include "core/trace.hpp"
#include "numeric/rng.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/stats.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::core {

const char* stageStatusName(StageStatus s) {
  switch (s) {
    case StageStatus::Passed:
      return "passed";
    case StageStatus::Failed:
      return "failed";
    case StageStatus::Skipped:
      return "skipped";
  }
  return "unknown";
}

sizing::Performance measureAmplifier(const circuit::Netlist& net,
                                     const circuit::Process& proc,
                                     Deadline* deadline) {
  AMSYN_SPAN("measure");
  sizing::Performance perf;
  try {
    sim::Mna mna(net, proc);
    sim::DcOptions dopts;
    dopts.deadline = deadline;
    const auto op =
        sim::dcOperatingPoint(mna, sim::flatStart(mna, proc.vdd / 2), dopts);
    if (!op.converged) {
      sizing::markInfeasible(perf, op.status);  // dc already tallied the failure
      return perf;
    }
    perf["power"] = sim::staticPower(mna, op);
    const auto sweep =
        sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e9, 6), deadline);
    if (sweep.status != EvalStatus::Ok) {
      sizing::markInfeasible(perf, sweep.status);
      return perf;
    }
    perf["gain_db"] = sim::dcGainDb(sweep);
    const auto ugf = sim::unityGainFrequency(sweep);
    const auto pm = sim::phaseMarginDeg(sweep);
    if (ugf) perf["ugf"] = *ugf;
    if (pm) perf["pm"] = *pm;
    if (!ugf || !pm) {
      sizing::markInfeasible(perf, EvalStatus::NoAcCrossing);
      sim::recordEvalFailure(EvalStatus::NoAcCrossing);
    }
  } catch (...) {
    // A malformed netlist (bad node names from layout annotation, ...) is
    // verification data, not a crash; bad_alloc is classified apart as
    // out_of_memory, never misfiled as an internal error.
    const EvalStatus st = classifyCurrentException();
    sizing::markInfeasible(perf, st);
    sim::recordEvalFailure(st);
  }
  return perf;
}

FlowResult synthesizeAmplifier(const sizing::SpecSet& specs, const circuit::Process& proc,
                               const FlowOptions& opts) {
  FlowEngine engine(amplifierStageGraph());
  return engine.run(specs, proc, opts);
}

FlowOptions batchItemOptions(const FlowOptions& base, std::size_t index) {
  FlowOptions item = base;
  item.seed = num::Rng::streamSeed(base.seed, index);
  return item;
}

namespace {

RunReport buildFlowReport(const FlowResult& result) {
  RunReport report;
  report.name = "flow";
  report.addInfo("topology", result.topology)
      .addInfo("failure_reason", result.failureReason)
      .addInfo("failure_status", evalStatusName(result.failureStatus));
  report.addValue("success", result.success ? 1.0 : 0.0)
      .addValue("redesigns", static_cast<double>(result.redesigns))
      .addValue("verifications", static_cast<double>(result.verifications.size()));
  for (std::size_t i = 0; i < result.verifications.size(); ++i) {
    const auto& v = result.verifications[i];
    const std::string prefix = "verify." + std::to_string(i) + ".";
    report.addInfo(prefix + "stage", v.stage);
    report.addValue(prefix + "passed", v.passed ? 1.0 : 0.0);
    for (const auto& p : electricalPerformanceTable())
      if (auto it = v.measured.find(p.name); it != v.measured.end())
        report.addValue(prefix + p.name, it->second);
  }
  report.addValue("stages", static_cast<double>(result.stageRecords.size()));
  for (std::size_t i = 0; i < result.stageRecords.size(); ++i) {
    const auto& s = result.stageRecords[i];
    const std::string prefix = "stage." + std::to_string(i) + ".";
    report.addInfo(prefix + "name", s.name);
    report.addInfo(prefix + "status", stageStatusName(s.status));
    report.addInfo(prefix + "detail", s.detail);
    report.addInfo(prefix + "eval_status", evalStatusName(s.evalStatus));
    report.addValue(prefix + "attempt", static_cast<double>(s.attempt));
    report.addValue(prefix + "seconds", s.seconds);
  }
  return report;
}

}  // namespace

std::string flowRunReportJson(const FlowResult& result) {
  return buildFlowReport(result).toJson();
}

std::string flowRunReportJson(const FlowResult& result, const ExecutionContext& ctx) {
  RunReport report = buildFlowReport(result);
  // The context's counter slice rides along as ordinary values: what THIS
  // job/tenant recorded, next to the process-wide registry snapshot the
  // report always carries.  Zero-delta counters are omitted (the slice map
  // is sparse), so presence means "this context actually recorded it".
  for (const auto& [name, delta] : ctx.sliceCounters())
    report.addValue("ctx." + name, static_cast<double>(delta));
  return report.toJson();
}

}  // namespace amsyn::core
