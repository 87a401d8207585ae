// 128-bit content digests.  topology::amplifierLibrary keys its memo by the
// digest of (space, process, load), so corner and perturbed processes get
// libraries of their own.
//
// Header-only and dependency-free, so any library may hash with it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

namespace amsyn::core {

/// 128-bit digest: two lanes of avalanche mixing, so accidental collisions
/// are negligible for memo keys.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator<(const Digest128& a, const Digest128& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

/// Incremental 128-bit hasher, allocation-free.  Deterministic across
/// threads, runs, and platforms with the same endianness and IEEE-754
/// doubles (the only configuration amsyn supports).
class Hasher128 {
 public:
  Hasher128& mix(std::uint64_t v) {
    h1_ = mix64(h1_ ^ v);
    h2_ = mix64(h2_ + v * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
    return *this;
  }

  /// Canonical double bits: -0.0 hashes as +0.0 and every NaN hashes as one
  /// quiet-NaN payload, so semantically equal values share a digest.
  Hasher128& mixDouble(double v) { return mix(canonicalBits(v)); }

  Hasher128& mixString(std::string_view s) {
    mix(s.size());
    std::uint64_t chunk = 0;
    std::size_t n = 0;
    for (unsigned char c : s) {
      chunk |= static_cast<std::uint64_t>(c) << (8 * n);
      if (++n == 8) {
        mix(chunk);
        chunk = 0;
        n = 0;
      }
    }
    if (n != 0) mix(chunk);
    return *this;
  }

  Digest128 digest() const {
    // Final avalanche with cross-lane diffusion so trailing mixes affect
    // both words.
    Digest128 d;
    d.hi = mix64(h1_ + 0x8bb84b93962eacc9ULL * h2_);
    d.lo = mix64(h2_ ^ 0x2f9be6cc79d86476ULL ^ h1_);
    return d;
  }

 private:
  static std::uint64_t canonicalBits(double v) {
    if (v != v) return 0x7ff8000000000000ULL;  // all NaNs alias
    if (v == 0.0) v = 0.0;                     // -0.0 aliases +0.0
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
  }

  static constexpr std::uint64_t mix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t h1_ = 0x6a09e667f3bcc908ULL;
  std::uint64_t h2_ = 0xbb67ae8584caa73bULL;
};

}  // namespace amsyn::core
