// Topology library: the menu of circuit schematics a selection strategy
// chooses from (section 2.1: "selecting the most appropriate circuit
// topology out of a set of alternatives, that can best meet the given
// specifications").  Each entry bundles an equation-based performance model
// (for optimization and interval analysis), heuristic applicability rules,
// and coarse feasibility intervals.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "numeric/interval.hpp"
#include "sizing/blocks.hpp"
#include "sizing/perfmodel.hpp"
#include "sizing/spec.hpp"

namespace amsyn::topology {

/// Achievable performance ranges: performance name -> interval over the
/// whole design space (computed by interval evaluation, ref [15]).
using FeasibilityBounds = std::map<std::string, num::Interval>;

/// A heuristic applicability rule (OPASYN-style rule-based selection):
/// returns a score contribution (positive favors the topology) with an
/// explanation.
struct HeuristicRule {
  std::string description;
  std::function<double(const sizing::SpecSet&)> score;
};

struct TopologyEntry {
  std::string name;
  std::shared_ptr<sizing::PerformanceModel> model;
  FeasibilityBounds bounds;
  std::vector<HeuristicRule> rules;
  /// Relative structural complexity (devices); tie-breaker — simpler wins.
  int complexity = 0;
  /// The composition this entry models; name is structure.name(), and the
  /// netlist is sizing::buildComposedOpamp(structure, ...).
  sizing::OpampStructure structure;
};

class TopologyLibrary {
 public:
  /// Append an entry.  Names are the library's keys (selection results
  /// ride on them), so a duplicate name is a construction bug: throws
  /// std::invalid_argument.
  void add(TopologyEntry entry);
  const std::vector<TopologyEntry>& entries() const { return entries_; }
  /// Entry by name, O(log n).  Throws std::out_of_range listing the
  /// available names when absent — with a generated space of dozens of
  /// entries, "no topology named X" alone buries the actual menu.
  const TopologyEntry& byName(const std::string& name) const;
  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<TopologyEntry> entries_;
  std::map<std::string, std::size_t> index_;  ///< name -> entries_ position
};

/// Which candidate space amplifierLibrary returns: Legacy, the two
/// historical cells (five-transistor OTA, two-stage Miller), or Generated,
/// the whole composed functional-block space (sizing/blocks.hpp).  The enum
/// is core's, shared with ContextConfig::topologySpace.
using TopologySpace = core::TopologySpace;

/// The amplifier candidate library: one entry per composed structure of the
/// space (sizing/blocks.hpp), each with its sizing::ComposedOpampModel,
/// interval bounds sampled over the full design-variable box, heuristic
/// rules and device-count complexity.  Legacy: the five-transistor OTA and
/// the two-stage Miller opamp with the family rules only.  Generated: every
/// electrically valid structure (both legacy cells included, with a small
/// provenance bonus over generated siblings).  Every rule aggregates over
/// *all* matching specs — a SpecSet may carry several bounds on one
/// performance.  Unset `space` means the calling context's configured one
/// (ContextConfig::topologySpace, i.e. AMSYN_TOPOLOGY_SPACE by default).
/// Memoized per (space, process, loadCap): repeated flow starts reuse the
/// sampled bounds.  A memo miss samples the entries in parallel on the
/// pool; the result is bit-identical at any pool width.  The returned
/// reference is the memo entry itself; entries are never erased, so it
/// stays valid for the life of the process.
const TopologyLibrary& amplifierLibrary(const circuit::Process& proc, double loadCap,
                                        std::optional<TopologySpace> space = std::nullopt);

/// Interval evaluation of an equation model: bound each performance over the
/// design box by sampling a coarse grid and taking the hull, widened by a
/// safety factor.  (A conservative, implementation-agnostic stand-in for
/// per-model interval arithmetic; soundness direction: intervals always
/// contain every sampled achievable point.)  Throws std::invalid_argument
/// when gridPerAxis is 0 or widen is below 1 or not finite.
FeasibilityBounds boundsBySampling(const sizing::PerformanceModel& model,
                                   std::size_t gridPerAxis = 3, double widen = 1.15);

}  // namespace amsyn::topology
