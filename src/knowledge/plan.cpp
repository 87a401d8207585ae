#include "knowledge/plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace amsyn::knowledge {

double PlanContext::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) throw std::out_of_range("PlanContext: missing value " + key);
  return it->second;
}

DesignPlan& DesignPlan::input(const std::string& input) {
  inputs_.push_back(input);
  return *this;
}

DesignPlan& DesignPlan::knob(const std::string& name, double initial, double lo, double hi) {
  knobs_.push_back(Knob{name, initial, lo, hi});
  return *this;
}

DesignPlan& DesignPlan::step(const std::string& name,
                             std::function<StepResult(PlanContext&)> fn) {
  steps_.push_back(PlanStep{name, std::move(fn)});
  return *this;
}

DesignPlan& DesignPlan::subplan(const DesignPlan& sub) {
  // Capture by value: the sub-plan definition is frozen at composition time,
  // exactly like OASYS's compiled plan hierarchy.
  steps_.push_back(PlanStep{
      "subplan:" + sub.name_, [sub](PlanContext& ctx) -> StepResult {
        for (const auto& in : sub.inputs_)
          if (!ctx.has(in))
            return StepResult::failure(sub.name_ + ": missing input " + in);
        for (const auto& k : sub.knobs_)
          if (!ctx.has(k.name)) ctx.set(k.name, k.initial);
        for (const auto& s : sub.steps_) {
          StepResult r = s.run(ctx);
          if (!r.ok) {
            r.message = sub.name_ + "/" + s.name + ": " + r.message;
            return r;  // bubble up, including any knob-adjust request
          }
        }
        return StepResult::success(sub.name_ + " complete");
      }});
  return *this;
}

PlanResult DesignPlan::execute(const circuit::Process& proc,
                               const std::map<std::string, double>& inputs,
                               std::size_t maxRetries) const {
  PlanResult result{false, {}, {}, 0, PlanContext(proc)};

  // Knob values persist across retries so adjustments accumulate.
  std::map<std::string, double> knobValues;
  for (const auto& k : knobs_) knobValues[k.name] = k.initial;

  for (std::size_t attempt = 0; attempt <= maxRetries; ++attempt) {
    PlanContext ctx(proc);
    for (const auto& [k, v] : inputs) ctx.set(k, v);
    for (const auto& [k, v] : knobValues) ctx.set(k, v);

    bool missing = false;
    for (const auto& in : inputs_) {
      if (!ctx.has(in)) {
        result.trace.push_back("missing required input: " + in);
        result.failedStep = "(inputs)";
        missing = true;
        break;
      }
    }
    if (missing) return result;

    bool failed = false;
    for (const auto& s : steps_) {
      const StepResult r = s.run(ctx);
      result.trace.push_back(s.name + ": " + (r.ok ? "ok" : "FAIL") +
                             (r.message.empty() ? "" : " — " + r.message));
      if (r.ok) continue;

      failed = true;
      result.failedStep = s.name;
      if (!r.adjustKnob.empty() && knobValues.count(r.adjustKnob) && attempt < maxRetries) {
        // Backtrack: adjust the knob within its declared range and retry.
        const auto kit = std::find_if(knobs_.begin(), knobs_.end(),
                                      [&](const Knob& k) { return k.name == r.adjustKnob; });
        double next = knobValues[r.adjustKnob] * r.adjustFactor;
        if (kit != knobs_.end()) next = std::clamp(next, kit->lo, kit->hi);
        if (next == knobValues[r.adjustKnob]) {
          result.trace.push_back("knob " + r.adjustKnob + " exhausted its range");
          result.context = std::move(ctx);
          return result;  // knob pinned at its limit: genuine failure
        }
        knobValues[r.adjustKnob] = next;
        ++result.retries;
        result.trace.push_back("retry with " + r.adjustKnob + " = " + std::to_string(next));
      } else {
        result.context = std::move(ctx);
        return result;  // non-retryable failure
      }
      break;  // restart the step sequence
    }

    if (!failed) {
      result.success = true;
      result.context = std::move(ctx);
      return result;
    }
  }
  return result;
}

}  // namespace amsyn::knowledge
