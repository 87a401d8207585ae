#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amsyn::num {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(xs.begin(), xs.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

Proportion wilsonInterval(std::size_t successes, std::size_t trials) {
  Proportion out;
  if (trials == 0) return out;
  constexpr double z = 1.959963984540054;  // 97.5 percentile of N(0,1)
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2 * n)) / denom;
  const double half = z * std::sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom;
  out.estimate = phat;
  out.lo95 = std::max(0.0, center - half);
  out.hi95 = std::min(1.0, center + half);
  return out;
}

}  // namespace amsyn::num
