// Counter deltas for tests: snapshot the process-wide metrics registry at
// construction, then read how much a named counter has grown since.  The
// delta counts exactly the traffic of the enclosing test, on its own thread
// and on any pool worker it fans out to, because gtest runs a binary's
// cases one after another and pool workers sit idle between cases.
#pragma once

#include <cstdint>
#include <string>

#include "core/evalstatus.hpp"
#include "core/metrics.hpp"

namespace amsyn::testutil {

class CounterDelta {
 public:
  CounterDelta() : base_(core::metrics::registry().snapshot()) {}

  std::uint64_t operator[](const std::string& name) const {
    const auto it = base_.counters.find(name);
    const std::uint64_t base = it == base_.counters.end() ? 0 : it->second;
    return core::metrics::registry().total(name) - base;
  }
  /// Delta of the "sim.fail.<reason>" tally (sim/stats.hpp).
  std::uint64_t failures(core::EvalStatus s) const {
    return (*this)[std::string("sim.fail.") + core::evalStatusName(s)];
  }

 private:
  core::metrics::Snapshot base_;
};

}  // namespace amsyn::testutil
