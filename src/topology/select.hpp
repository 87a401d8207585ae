// Topology selection strategies surveyed in section 2.2 of the paper:
//  * rule-based selection (OPASYN [8], CADICS [9]) — heuristic scoring,
//  * boundary checking with interval analysis (Veselinovic et al. [15]) —
//    prove infeasibility from achievable-performance intervals before any
//    sizing is attempted,
//  * selection integrated with sizing (section "other tools have attempted
//    to integrate the topology selection step as part of the optimization
//    loop") — see genetic.hpp for that.
#pragma once

#include <string>
#include <vector>

#include "sizing/synth.hpp"
#include "topology/library.hpp"

namespace amsyn::topology {

struct Candidate {
  std::string name;
  double score = 0.0;        ///< rule score (rule-based) or margin (interval)
  bool feasible = true;      ///< interval check verdict
  std::vector<std::string> reasons;
};

/// Rank all topologies by heuristic rule score (ties broken toward lower
/// structural complexity).  Never rejects — rules only order.
std::vector<Candidate> ruleBasedSelect(const TopologyLibrary& lib,
                                       const sizing::SpecSet& specs);

/// Boundary checking: a topology is infeasible iff some constraint bound
/// lies outside the achievable interval for that performance.  Feasible
/// candidates are ranked by their worst normalized margin.
std::vector<Candidate> intervalSelect(const TopologyLibrary& lib,
                                      const sizing::SpecSet& specs);

/// Full front-to-back selection + sizing (the AMGIE flow): interval-filter,
/// order by rules, then run optimization-based sizing on candidates in order
/// until one meets the specs.  `maxSizingCandidates` bounds how many ranked
/// candidates get a (costly) sizing run — with the generated space's dozens
/// of entries, sizing every interval-feasible candidate on a hopeless spec
/// set would multiply the flow's redesign cost by the space size.  0 means
/// unlimited; the default covers the legacy library several times over, so
/// legacy-space behavior is unchanged.
struct SelectAndSizeResult {
  bool success = false;
  std::string topology;
  sizing::SynthesisResult sizing;
  std::vector<Candidate> consideredOrder;
};
SelectAndSizeResult selectAndSize(const TopologyLibrary& lib, const sizing::SpecSet& specs,
                                  const sizing::SynthesisOptions& opts = {},
                                  std::size_t maxSizingCandidates = 8);

}  // namespace amsyn::topology
