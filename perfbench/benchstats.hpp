// Arithmetic and self-checks of the flow benchmark, kept free of amsyn
// headers so benchstats_test can exercise them without the libraries.
//
// Conventions: a statistic that has no defined value (a percentile of an
// empty sample, a rate whose denominator is zero) is std::nullopt and prints
// as JSON null — never as 0, which would read as a measured value (the same
// rule as core::RunReport::addRatio).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Counters = std::map<std::string, std::uint64_t>;

/// The q-quantile (q in [0, 1]) of `v` by linear interpolation between
/// closest ranks: rank q*(n-1), so q=0.5 of an even-sized sample is the
/// mean of its two middle values.  nullopt for an empty sample.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nullopt;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

inline std::optional<double> median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Harrell-Davis estimate of the median: the mean of all order statistics,
/// the i-th (of n) weighted by the probability Beta((n+1)/2, (n+1)/2) gives
/// [i/n, (i+1)/n].  Over a sample of unlike designs with a gap in the
/// middle, the sample median jumps across the gap whenever two neighbours
/// trade places; this estimate moves smoothly.  nullopt for an empty sample.
inline std::optional<double> harrellDavisMedian(std::vector<double> v) {
  if (v.size() <= 1) return v.empty() ? std::nullopt : std::optional<double>(v[0]);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = (n + 1.0) / 2.0;  // >= 1.5, so the density is 0 at 0 and 1
  const double logNorm = std::lgamma(2.0 * a) - 2.0 * std::lgamma(a);
  const auto density = [&](double x) {
    return x <= 0.0 || x >= 1.0
               ? 0.0
               : std::exp(logNorm + (a - 1.0) * (std::log(x) + std::log1p(-x)));
  };
  // Simpson's rule on each interval: exact when the density is a
  // polynomial of degree 3 or less (n <= 5), and to ~1e-9 beyond.
  constexpr int kSteps = 64;
  double sum = 0.0, total = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double lo = static_cast<double>(i) / n, h = 1.0 / (n * kSteps);
    double s = density(lo) + density(lo + kSteps * h);
    for (int j = 1; j < kSteps; ++j) s += (j % 2 ? 4.0 : 2.0) * density(lo + j * h);
    const double w = s * h / 3.0;
    sum += w * v[i];
    total += w;
  }
  return sum / total;
}

/// The highest tail percentile (as a fraction: 0.99, 0.95 or 0.9) that has
/// at least ten of `n` samples beyond it; nullopt when even p90 has fewer.
inline std::optional<double> reportableTail(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.9})
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) return q;
  return std::nullopt;
}

/// num / den, nullopt when den is zero or either side is not finite.
inline std::optional<double> rate(double num, double den) {
  if (den == 0.0 || !std::isfinite(num) || !std::isfinite(den)) return std::nullopt;
  return num / den;
}

inline std::optional<double> mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return rate(sum, static_cast<double>(v.size()));
}

/// Factor that turns seconds measured while the host ran the reference
/// kernel in `samples` seconds into seconds on a host where it takes
/// `nominal`: nominal over the samples' median.  A slow phase of the host
/// slows the reference with the program, so the factor cancels it.  nullopt
/// without samples or with a non-positive median.
inline std::optional<double> referenceScale(const std::vector<double>& samples,
                                            double nominal) {
  const auto m = median(samples);
  if (!m || !(*m > 0.0)) return std::nullopt;
  return rate(nominal, *m);
}

/// JSON number, or null for a missing value; all 17 significant digits.
inline std::string jsonNumber(std::optional<double> v) {
  if (!v || !std::isfinite(*v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", *v);
  return buf;
}

/// after - before for every counter in `after` (a counter the registry
/// registered between the two reads counts from 0).
inline Counters delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [name, v] : after) {
    const auto it = before.find(name);
    d[name] = v - (it == before.end() ? 0 : it->second);
  }
  return d;
}

/// Names whose values differ between two counter records (a name present
/// in only one record is a mismatch too).  Empty means the work repeated.
inline std::vector<std::string> counterMismatches(const Counters& a, const Counters& b) {
  std::vector<std::string> bad;
  for (const auto& [name, v] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second != v) bad.push_back(name);
  }
  for (const auto& [name, v] : b)
    if (!a.count(name)) bad.push_back(name);
  return bad;
}

/// FNV-1a-64 over a design's result: exact bit patterns of its numbers, so
/// any change in the delivered design changes the digest.
class Digest {
 public:
  Digest& add(const std::string& s) {
    bytes(s.data(), s.size());
    return add(static_cast<std::uint64_t>(s.size()));
  }
  Digest& add(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    return add(bits);
  }
  Digest& add(std::uint64_t x) {
    bytes(&x, sizeof x);
    return *this;
  }
  Digest& add(const std::vector<double>& v) {
    for (const double x : v) add(x);
    return add(static_cast<std::uint64_t>(v.size()));
  }
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Deterministic input generator (SplitMix64), independent of the standard
/// library's distributions so a seed draws the same inputs everywhere.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

/// A permutation of [0, n) drawn from `seed` (Fisher-Yates over SplitMix).
inline std::vector<std::size_t> seededPermutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  SplitMix rng(seed);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.next() % i]);
  return p;
}

}  // namespace perfbench
