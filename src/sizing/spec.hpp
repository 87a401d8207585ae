// Performance specifications.  A SpecSet is the input to every synthesis
// engine in amsyn — design plans check specs step by step, optimization
// engines compile them into a scalar cost (ASTRX-style), and the
// verification stage re-checks them against full simulation.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/performances.hpp"

namespace amsyn::sizing {

enum class SpecKind : std::uint8_t {
  GreaterEqual,  ///< perf >= bound (e.g. gain, phase margin)
  LessEqual,     ///< perf <= bound (e.g. power, noise, peaking time)
  Minimize,      ///< objective: smaller is better
  Maximize,      ///< objective: larger is better
};

struct Spec {
  std::string performance;  ///< measurement name, e.g. "gain_db", "power"
  SpecKind kind = SpecKind::GreaterEqual;
  double bound = 0.0;   ///< constraint bound (ignored for pure objectives)
  double weight = 1.0;  ///< relative importance in the scalar cost
  /// Normalization scale; 0 = auto (|bound| for constraints, 1 for
  /// objectives).  ASTRX calls this the "good value" that makes penalty
  /// terms commensurable.
  double norm = 0.0;

  double normalization() const;
  bool isObjective() const {
    return kind == SpecKind::Minimize || kind == SpecKind::Maximize;
  }
  /// Constraint violation in normalized units (0 when satisfied/objective).
  double violation(double value) const;
  std::string describe() const;
};

/// An ordered collection of specs with builder helpers.
class SpecSet {
 public:
  SpecSet& require(const std::string& perf, SpecKind kind, double bound, double weight = 1.0);
  SpecSet& atLeast(const std::string& perf, double bound, double weight = 1.0);
  SpecSet& atMost(const std::string& perf, double bound, double weight = 1.0);
  SpecSet& minimize(const std::string& perf, double weight = 1.0, double norm = 0.0);
  SpecSet& maximize(const std::string& perf, double weight = 1.0, double norm = 0.0);

  const std::vector<Spec>& specs() const { return specs_; }
  bool empty() const { return specs_.empty(); }

  /// All constraints satisfied by the given performance values?  Missing
  /// performances count as violations.
  bool satisfied(const core::Performance& perf, double tolerance = 0.0) const;

  /// Total normalized violation across constraints.
  double totalViolation(const core::Performance& perf) const;

 private:
  std::vector<Spec> specs_;
};

}  // namespace amsyn::sizing
