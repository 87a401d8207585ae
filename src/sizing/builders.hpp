// Per-topology netlist builder registry: maps a topology name to the
// function that turns a design point (in that topology's equation-model
// coordinates) into a sized testbench netlist.  The flow's BuildStage
// resolves builders here instead of hard-coding an `if (topology == ...)`
// ladder, so adding a circuit class to the synthesis flow means adding a
// library entry plus one registration — no core changes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "sizing/opamp.hpp"

namespace amsyn::sizing {

/// Build a sized testbench netlist for one topology from a design point in
/// that topology's equation-model variable order.  Builders must be
/// deterministic pure functions of (x, proc, tb).
using NetlistBuilder = std::function<circuit::Netlist(
    const std::vector<double>& x, const circuit::Process& proc,
    const OpampTestbench& tb)>;

class NetlistBuilderRegistry {
 public:
  /// The process-wide registry, pre-populated with one builder per composed
  /// amplifier structure (sizing/blocks.hpp), keyed by structure name —
  /// "two-stage-miller", "five-transistor-ota" and every "gen/..." entry.
  static NetlistBuilderRegistry& instance();

  /// Register (or replace) the builder for `topology`.  Call during
  /// startup/setup only: registration is not synchronized against flows
  /// concurrently resolving builders.
  void add(const std::string& topology, NetlistBuilder builder);

  /// Builder for `topology`, or nullptr when none is registered.
  const NetlistBuilder* find(const std::string& topology) const;

 private:
  NetlistBuilderRegistry();
  std::map<std::string, NetlistBuilder> builders_;
};

}  // namespace amsyn::sizing
