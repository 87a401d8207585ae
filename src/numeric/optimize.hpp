// Derivative-free local optimization: Nelder-Mead simplex with box bounds and
// coordinate (pattern) search.  In the synthesis flow these refine the result
// of global annealing (the classic OPTIMAN / OBLX two-stage strategy) and
// drive the worst-case corner search of the manufacturability tool.
#pragma once

#include <functional>
#include <vector>

namespace amsyn::num {

using ObjectiveFn = std::function<double(const std::vector<double>&)>;

struct BoxBounds {
  std::vector<double> lo;
  std::vector<double> hi;

  /// Clamp a point into the box.
  std::vector<double> clamp(std::vector<double> x) const;
};

struct OptResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t evaluations = 0;
  bool converged = false;
};

struct NelderMeadOptions {
  std::size_t maxEvaluations = 2000;
  double initialStep = 0.1;   ///< initial simplex edge, relative to box width
};

/// Minimize f over the box starting from x0 (clamped into the box).
OptResult nelderMead(const ObjectiveFn& f, std::vector<double> x0, const BoxBounds& bounds,
                     const NelderMeadOptions& opts = {});

struct CoordinateSearchOptions {
  std::size_t maxSweeps = 60;
  double initialStep = 0.25;  ///< relative to box width per dimension
};

/// Compass / coordinate pattern search: evaluate +/- step along each axis,
/// accept improvements, shrink when stuck.  Monotone and extremely robust for
/// the low-dimensional corner boxes of the manufacturability tool.  The
/// caller passes the start's value: f0 must equal f(bounds.clamp(x0)), and
/// the start is not re-evaluated.
OptResult coordinateSearch(const ObjectiveFn& f, std::vector<double> x0, double f0,
                           const BoxBounds& bounds, const CoordinateSearchOptions& opts = {});

}  // namespace amsyn::num
