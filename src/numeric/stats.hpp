// Small statistics helpers for Monte-Carlo yield estimation and benchmark
// reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace amsyn::num {

/// p-th percentile (0..100) by linear interpolation on the sorted sample.
double percentile(std::vector<double> xs, double p);

/// Wilson score interval for a binomial proportion (yield confidence bound).
struct Proportion {
  double estimate = 0.0;
  double lo95 = 0.0;
  double hi95 = 0.0;
};
Proportion wilsonInterval(std::size_t successes, std::size_t trials);

}  // namespace amsyn::num
