#include "sizing/spec.hpp"

#include <cmath>
#include <sstream>

namespace amsyn::sizing {

double Spec::normalization() const {
  if (norm > 0.0) return norm;
  if (isObjective()) return 1.0;
  return std::abs(bound) > 0.0 ? std::abs(bound) : 1.0;
}

double Spec::violation(double value) const {
  switch (kind) {
    case SpecKind::GreaterEqual:
      return std::max(0.0, (bound - value) / normalization());
    case SpecKind::LessEqual:
      return std::max(0.0, (value - bound) / normalization());
    case SpecKind::Minimize:
    case SpecKind::Maximize:
      return 0.0;
  }
  return 0.0;
}

std::string Spec::describe() const {
  std::ostringstream out;
  out << performance;
  switch (kind) {
    case SpecKind::GreaterEqual: out << " >= " << bound; break;
    case SpecKind::LessEqual: out << " <= " << bound; break;
    case SpecKind::Minimize: out << " -> min"; break;
    case SpecKind::Maximize: out << " -> max"; break;
  }
  return out.str();
}

SpecSet& SpecSet::require(const std::string& perf, SpecKind kind, double bound,
                          double weight) {
  specs_.push_back(Spec{perf, kind, bound, weight, 0.0});
  return *this;
}

SpecSet& SpecSet::atLeast(const std::string& perf, double bound, double weight) {
  return require(perf, SpecKind::GreaterEqual, bound, weight);
}

SpecSet& SpecSet::atMost(const std::string& perf, double bound, double weight) {
  return require(perf, SpecKind::LessEqual, bound, weight);
}

SpecSet& SpecSet::minimize(const std::string& perf, double weight, double norm) {
  specs_.push_back(Spec{perf, SpecKind::Minimize, 0.0, weight, norm});
  return *this;
}

SpecSet& SpecSet::maximize(const std::string& perf, double weight, double norm) {
  specs_.push_back(Spec{perf, SpecKind::Maximize, 0.0, weight, norm});
  return *this;
}

bool SpecSet::satisfied(const core::Performance& perf, double tolerance) const {
  for (const Spec& s : specs_) {
    if (s.isObjective()) continue;
    auto it = perf.find(s.performance);
    if (it == perf.end()) return false;
    if (s.violation(it->second) > tolerance) return false;
  }
  return true;
}

}  // namespace amsyn::sizing
