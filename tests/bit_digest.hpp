// FNV-1a over raw bytes, shared by the pinned-result and layer-golden tests:
// every bit of every double counts, so a refactor that means to keep
// behaviour keeps the recorded digests.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace amsyn::testutil {

class BitDigest {
 public:
  BitDigest& bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
    return *this;
  }
  BitDigest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  BitDigest& i64(std::int64_t v) { return bytes(&v, sizeof v); }
  BitDigest& real(double v) { return bytes(&v, sizeof v); }
  BitDigest& str(const std::string& s) { return u64(s.size()).bytes(s.data(), s.size()); }
  BitDigest& reals(const std::vector<double>& v) {
    u64(v.size());
    for (const double d : v) real(d);
    return *this;
  }
  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace amsyn::testutil
