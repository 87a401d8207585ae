#include "topology/select.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/trace.hpp"
#include "sim/stats.hpp"

namespace amsyn::topology {

using sizing::Spec;
using sizing::SpecKind;

std::vector<Candidate> ruleBasedSelect(const TopologyLibrary& lib,
                                       const sizing::SpecSet& specs) {
  std::vector<Candidate> out;
  for (const auto& e : lib.entries()) {
    Candidate c;
    c.name = e.name;
    for (const auto& r : e.rules) {
      const double s = r.score(specs);
      if (s != 0.0) {
        c.score += s;
        c.reasons.push_back(r.description + " (" + (s > 0 ? "+" : "") + std::to_string(s) +
                            ")");
      }
    }
    // Prefer structurally simpler circuits on near-ties.
    c.score -= 0.01 * e.complexity;
    out.push_back(std::move(c));
  }
  // Tie-break equal scores by name: std::sort is unstable and candidate
  // order feeds straight into which topology gets sized first, so without a
  // total order the pick could differ across std-lib implementations.
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.name < b.name;
  });
  return out;
}

std::vector<Candidate> intervalSelect(const TopologyLibrary& lib,
                                      const sizing::SpecSet& specs) {
  std::vector<Candidate> out;
  for (const auto& e : lib.entries()) {
    Candidate c;
    c.name = e.name;
    c.score = std::numeric_limits<double>::infinity();  // min margin
    bool nanMargin = false;
    for (const Spec& s : specs.specs()) {
      if (s.isObjective()) continue;
      auto it = e.bounds.find(s.performance);
      if (it == e.bounds.end()) {
        c.feasible = false;
        c.reasons.push_back("no bound for " + s.performance);
        continue;
      }
      const auto& b = it->second;
      double margin;  // normalized distance from the bound into the interval
      if (s.kind == SpecKind::GreaterEqual) {
        margin = (b.hi() - s.bound) / s.normalization();
      } else {
        margin = (s.bound - b.lo()) / s.normalization();
      }
      if (margin < 0.0) {
        c.feasible = false;
        c.reasons.push_back(s.describe() + " outside achievable [" +
                            std::to_string(b.lo()) + ", " + std::to_string(b.hi()) + "]");
      }
      // std::min would silently discard a NaN in its second argument, so the
      // margin must be checked before it enters the reduction.
      if (std::isnan(margin))
        nanMargin = true;
      else
        c.score = std::min(c.score, margin);
    }
    if (nanMargin || std::isnan(c.score)) {
      // A NaN margin (NaN bound or spec normalization) used to be silently
      // clamped to 0.0 — a neutral score that could rank the entry above
      // legitimate candidates, and a strict-weak-ordering violation in the
      // sort below.  It is infeasible data: rank it below every real score.
      c.feasible = false;
      c.score = -std::numeric_limits<double>::infinity();
      c.reasons.push_back("nan_detected: margin evaluation produced NaN");
      sim::recordEvalFailure(core::EvalStatus::NanDetected);
    } else if (!std::isfinite(c.score)) {
      c.score = 0.0;  // no constraint consulted: neutral
    }
    out.push_back(std::move(c));
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.feasible != b.feasible) return a.feasible;
    if (a.score != b.score) return a.score > b.score;
    return a.name < b.name;  // deterministic order on margin ties
  });
  return out;
}

SelectAndSizeResult selectAndSize(const TopologyLibrary& lib, const sizing::SpecSet& specs,
                                  const sizing::SynthesisOptions& opts,
                                  std::size_t maxSizingCandidates) {
  AMSYN_SPAN("select_and_size");
  SelectAndSizeResult result;

  // Interval filter first (cheap, sound), then order survivors by rules.
  const auto byInterval = intervalSelect(lib, specs);
  const auto byRules = ruleBasedSelect(lib, specs);
  std::unordered_map<std::string_view, std::size_t> ruleRank;
  for (std::size_t i = 0; i < byRules.size(); ++i) ruleRank.emplace(byRules[i].name, i);

  // Feasible candidates with their rule ranks, each looked up once.
  std::vector<std::pair<std::size_t, const Candidate*>> ranked;
  for (const auto& c : byInterval) {
    if (!c.feasible) continue;
    const auto it = ruleRank.find(c.name);
    ranked.emplace_back(it == ruleRank.end() ? byRules.size() : it->second, &c);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second->name < b.second->name;  // both unranked by rules: order by name
  });
  std::vector<Candidate> order;
  order.reserve(ranked.size());
  for (const auto& [rank, c] : ranked) order.push_back(*c);
  result.consideredOrder = order;

  std::size_t sized = 0;
  for (const auto& c : order) {
    if (maxSizingCandidates != 0 && sized++ >= maxSizingCandidates) break;
    const auto& entry = lib.byName(c.name);
    const auto res = sizing::synthesize(*entry.model, specs, opts);
    if (res.feasible) {
      result.success = true;
      result.topology = c.name;
      result.sizing = res;
      return result;
    }
  }
  return result;
}

}  // namespace amsyn::topology
