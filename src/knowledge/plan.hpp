// Knowledge-based synthesis: executable design plans (Fig. 1a of the paper).
// IDAC [4] encoded manually derived, prearranged design plans; OASYS [1]
// added hierarchy (plans invoking sub-plans) and backtracking on failure.
// This engine reproduces both mechanisms: a plan is an ordered list of steps
// over a shared numeric context, a step may fail with a diagnostic, and a
// plan may declare *knobs* — heuristic quantities a failed step can ask to
// have adjusted before the plan is retried (OASYS-style backtracking).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"

namespace amsyn::knowledge {

/// Shared blackboard: specification inputs, intermediate design quantities,
/// and final outputs all live here under string keys.
class PlanContext {
 public:
  explicit PlanContext(const circuit::Process& proc) : proc_(&proc) {}

  const circuit::Process& process() const { return *proc_; }

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  double get(const std::string& key) const;
  void set(const std::string& key, double value) { values_[key] = value; }

  const std::map<std::string, double>& values() const { return values_; }

 private:
  const circuit::Process* proc_;
  std::map<std::string, double> values_;
};

/// Outcome of one plan step.
struct StepResult {
  bool ok = true;
  std::string message;
  /// On failure: the knob the step wants adjusted (OASYS backtracking).
  std::string adjustKnob;
  double adjustFactor = 1.0;  ///< multiply the knob by this and retry

  static StepResult success(std::string msg = {}) { return {true, std::move(msg), {}, 1.0}; }
  static StepResult failure(std::string msg) { return {false, std::move(msg), {}, 1.0}; }
  static StepResult retry(std::string msg, std::string knob, double factor) {
    return {false, std::move(msg), std::move(knob), factor};
  }
};

struct PlanStep {
  std::string name;
  std::function<StepResult(PlanContext&)> run;
};

struct PlanResult {
  bool success = false;
  std::vector<std::string> trace;   ///< step-by-step log
  std::string failedStep;
  std::size_t retries = 0;
  PlanContext context;              ///< final blackboard state
};

/// A design plan: required inputs, knobs with initial values, ordered steps.
class DesignPlan {
 public:
  DesignPlan(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  DesignPlan& input(const std::string& input);
  /// Declare a knob with its initial value and allowed range.
  DesignPlan& knob(const std::string& name, double initial, double lo, double hi);
  DesignPlan& step(const std::string& name, std::function<StepResult(PlanContext&)> fn);
  /// Hierarchical composition: run a sub-plan as one step (OASYS hierarchy).
  /// The sub-plan shares the parent's context directly.
  DesignPlan& subplan(const DesignPlan& sub);

  /// Execute with given spec inputs.  Steps run in order; a retryable
  /// failure adjusts the named knob (within its range) and restarts the
  /// plan, up to `maxRetries`.
  PlanResult execute(const circuit::Process& proc,
                     const std::map<std::string, double>& inputs,
                     std::size_t maxRetries = 25) const;

 private:
  struct Knob {
    std::string name;
    double initial, lo, hi;
  };
  std::string name_;
  std::vector<std::string> inputs_;
  std::vector<Knob> knobs_;
  std::vector<PlanStep> steps_;
};

}  // namespace amsyn::knowledge
