#include "core/resilience.hpp"

#include <algorithm>
#include <cmath>

namespace amsyn::core {

std::uint64_t BackoffPolicy::delayMs(std::size_t retry) const {
  if (retry == 0 || initialMs == 0) return 0;
  const double delay = static_cast<double>(initialMs) *
                       std::pow(std::max(multiplier, 1.0), static_cast<double>(retry - 1));
  return static_cast<std::uint64_t>(std::min(delay, static_cast<double>(maxMs)));
}

bool RetryPolicy::shouldRetry(EvalStatus st, std::size_t attemptsSoFar) const {
  return attemptsSoFar < maxAttempts && isRetryable(st);
}

}  // namespace amsyn::core
