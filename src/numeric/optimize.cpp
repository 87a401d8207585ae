#include "numeric/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace amsyn::num {

namespace {
constexpr double kNmXTolerance = 1e-9;   ///< simplex size convergence threshold (relative)
constexpr double kNmFTolerance = 1e-12;  ///< function spread convergence threshold
constexpr double kCsShrink = 0.5;        ///< coordinate-search step factor when stuck
constexpr double kCsMinStep = 1e-6;      ///< coordinate-search stop (relative step)
}  // namespace

std::vector<double> BoxBounds::clamp(std::vector<double> x) const {
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::clamp(x[i], lo[i], hi[i]);
  return x;
}

OptResult nelderMead(const ObjectiveFn& f, std::vector<double> x0, const BoxBounds& bounds,
                     const NelderMeadOptions& opts) {
  const std::size_t n = x0.size();
  if (bounds.lo.size() != n || bounds.hi.size() != n)
    throw std::invalid_argument("nelderMead: bounds dimension mismatch");

  OptResult res;
  auto eval = [&](const std::vector<double>& x) {
    ++res.evaluations;
    return f(bounds.clamp(x));
  };

  // Initial simplex: x0 plus a perturbation along each axis.
  std::vector<std::vector<double>> pts(n + 1, bounds.clamp(std::move(x0)));
  std::vector<double> vals(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double span = bounds.hi[i] - bounds.lo[i];
    double step = opts.initialStep * (span > 0 ? span : 1.0);
    if (pts[i + 1][i] + step > bounds.hi[i]) step = -step;
    pts[i + 1][i] += step;
  }
  for (std::size_t i = 0; i <= n; ++i) vals[i] = eval(pts[i]);

  constexpr double kAlpha = 1.0, kGamma = 2.0, kRho = 0.5, kSigma = 0.5;

  while (res.evaluations < opts.maxEvaluations) {
    // Order: pts[order[0]] best, pts[order[n]] worst.
    std::vector<std::size_t> order(n + 1);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
    const std::size_t best = order[0], worst = order[n], second = order[n - 1];

    // Convergence: simplex extent and value spread.
    double extent = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double span = bounds.hi[i] - bounds.lo[i];
      if (span <= 0) span = 1.0;
      double d = 0.0;
      for (std::size_t k = 1; k <= n; ++k)
        d = std::max(d, std::abs(pts[order[k]][i] - pts[best][i]) / span);
      extent = std::max(extent, d);
    }
    if (extent < kNmXTolerance || std::abs(vals[worst] - vals[best]) < kNmFTolerance) {
      res.converged = true;
      break;
    }

    // Centroid of all but worst.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      for (std::size_t i = 0; i < n; ++i) centroid[i] += pts[k][i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto affine = [&](double t) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) x[i] = centroid[i] + t * (centroid[i] - pts[worst][i]);
      return bounds.clamp(std::move(x));
    };

    const auto xr = affine(kAlpha);
    const double fr = eval(xr);
    if (fr < vals[best]) {
      const auto xe = affine(kGamma);
      const double fe = eval(xe);
      if (fe < fr) {
        pts[worst] = xe;
        vals[worst] = fe;
      } else {
        pts[worst] = xr;
        vals[worst] = fr;
      }
    } else if (fr < vals[second]) {
      pts[worst] = xr;
      vals[worst] = fr;
    } else {
      const auto xc = affine(-kRho);
      const double fc = eval(xc);
      if (fc < vals[worst]) {
        pts[worst] = xc;
        vals[worst] = fc;
      } else {
        // Shrink toward best.
        for (std::size_t k = 0; k <= n; ++k) {
          if (k == order[0]) continue;
          for (std::size_t i = 0; i < n; ++i)
            pts[k][i] = pts[order[0]][i] + kSigma * (pts[k][i] - pts[order[0]][i]);
          vals[k] = eval(pts[k]);
        }
      }
    }
  }

  const auto it = std::min_element(vals.begin(), vals.end());
  res.value = *it;
  res.x = pts[static_cast<std::size_t>(it - vals.begin())];
  return res;
}

OptResult coordinateSearch(const ObjectiveFn& f, std::vector<double> x0, double f0,
                           const BoxBounds& bounds, const CoordinateSearchOptions& opts) {
  const std::size_t n = x0.size();
  OptResult res;
  auto eval = [&](const std::vector<double>& x) {
    ++res.evaluations;
    return f(x);
  };

  std::vector<double> x = bounds.clamp(std::move(x0));
  double fx = f0;
  std::vector<double> step(n);
  for (std::size_t i = 0; i < n; ++i) {
    double span = bounds.hi[i] - bounds.lo[i];
    step[i] = opts.initialStep * (span > 0 ? span : 1.0);
  }

  for (std::size_t sweep = 0; sweep < opts.maxSweeps; ++sweep) {
    bool improved = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (double dir : {+1.0, -1.0}) {
        std::vector<double> xt = x;
        xt[i] = std::clamp(xt[i] + dir * step[i], bounds.lo[i], bounds.hi[i]);
        if (xt[i] == x[i]) continue;
        const double ft = eval(xt);
        if (ft < fx) {
          x = std::move(xt);
          fx = ft;
          improved = true;
          break;
        }
      }
    }
    if (!improved) {
      double maxStep = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        step[i] *= kCsShrink;
        double span = bounds.hi[i] - bounds.lo[i];
        if (span <= 0) span = 1.0;
        maxStep = std::max(maxStep, step[i] / span);
      }
      if (maxStep < kCsMinStep) {
        res.converged = true;
        break;
      }
    }
  }
  res.x = std::move(x);
  res.value = fx;
  return res;
}

}  // namespace amsyn::num
