// OAC-style redesign from a design database (Onodera et al., JSSC 1990 —
// the paper's ref [25]): "based on redesign starting from a previous design
// solution stored in the system's database."  Completed syntheses are stored
// with their specs; a new synthesis warm-starts from the nearest stored
// design instead of the model's generic initial point.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sizing/spec.hpp"
#include "sizing/synth.hpp"

namespace amsyn::sizing {

struct StoredDesign {
  std::string label;
  SpecSet specs;
  std::vector<double> x;
  Performance performance;
};

class DesignDatabase {
 public:
  void store(StoredDesign design) { designs_.push_back(std::move(design)); }
  std::size_t size() const { return designs_.size(); }
  const std::vector<StoredDesign>& designs() const { return designs_; }

  /// Nearest stored design under a normalized spec-distance metric: for
  /// every constraint the query and the stored entry share, accumulate the
  /// relative bound difference; unshared constraints cost a fixed penalty.
  std::optional<StoredDesign> nearest(const SpecSet& query) const;

  /// Spec distance exposed for inspection/testing.
  static double specDistance(const SpecSet& a, const SpecSet& b);

 private:
  std::vector<StoredDesign> designs_;
};

/// Synthesize with database support: warm-start from the nearest stored
/// design (when one exists), then store the result on success.
SynthesisResult synthesizeWithDatabase(DesignDatabase& db, const PerformanceModel& model,
                                       const SpecSet& specs, const std::string& label,
                                       const SynthesisOptions& opts = {});

}  // namespace amsyn::sizing
