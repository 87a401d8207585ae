// The single sanctioned locus for AMSYN_* environment reads.
//
// Every process-level tuning knob (threads, eval-cache policy, job
// deadline, topology space) is parsed here and
// nowhere else: core::ContextConfig::fromEnv() snapshots the modes once
// into a plain struct, and every consumer reads that snapshot through its
// execution context.  Two bottom-layer singletons that exist before any
// context call the parsers for their sizing only — the shared EvalCache
// (AMSYN_EVAL_CACHE_CAPACITY, which nothing else reads) and the global
// thread pool (AMSYN_THREADS).  No knob seeds a *mode* into a shared
// object.  tools/context_lint.cmake fails the build when
// `getenv("AMSYN_` appears in any other file under src/, so new knobs are
// forced through this header.
//
// Header-only and dependency-free on purpose: it is included from
// amsyn_metrics-adjacent leaf libraries (evalcache, parallel) as well as
// from amsyn_context, so it must sit below all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

namespace amsyn::core::envknobs {

/// Strict unsigned decimal: digits only — no sign, no whitespace, no
/// trailing garbage — and no overflow past uint64.  Anything else is
/// nullopt, which every caller treats as "unset" (strtoull would wrap "-1"
/// to 2^64-1 and atoll is undefined out of range).
inline std::optional<std::uint64_t> parseUnsigned(const char* s) {
  if (!s || !*s) return std::nullopt;
  std::uint64_t v = 0;
  for (; *s; ++s) {
    if (*s < '0' || *s > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(*s - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

/// AMSYN_THREADS: worker count for the global pool.  0 = unset or
/// unparseable (parseUnsigned; callers fall back to hardware_concurrency);
/// parsed values clamp to [1, 512] so a typo cannot spawn an absurd pool.
inline std::size_t threads() {
  const auto v = parseUnsigned(std::getenv("AMSYN_THREADS"));
  if (!v || *v < 1) return 0;
  return static_cast<std::size_t>(*v > 512 ? 512 : *v);
}

/// AMSYN_EVAL_CACHE: enabled unless explicitly turned off with one of
/// "0"/"off"/"false"/"no".
inline bool evalCacheEnabled() {
  if (const char* env = std::getenv("AMSYN_EVAL_CACHE")) {
    const std::string v(env);
    if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  }
  return true;
}

/// AMSYN_EVAL_CACHE_CAPACITY: max resident entries (default 2^16); 0 and
/// unparseable values fall back to the default so the cache cannot be
/// configured into a degenerate always-evict state by accident (use
/// AMSYN_EVAL_CACHE=0 to turn it off).
inline std::size_t evalCacheCapacity() {
  const auto v = parseUnsigned(std::getenv("AMSYN_EVAL_CACHE_CAPACITY"));
  if (v && *v > 0 && *v <= SIZE_MAX) return static_cast<std::size_t>(*v);
  return std::size_t{1} << 16;  // 65536 entries; ~tens of MB of Performance payloads
}

/// AMSYN_JOB_DEADLINE_MS: default per-job wall-clock deadline (0 = none).
/// Only a strict unsigned decimal counts (parseUnsigned); anything else
/// means unset.  Huge values are safe: DeadlineBudget saturates.
inline std::uint64_t jobDeadlineMs() {
  return parseUnsigned(std::getenv("AMSYN_JOB_DEADLINE_MS")).value_or(0);
}

/// AMSYN_TOPOLOGY_SPACE: "generated"/"composed" select the composed
/// block-level space; anything else (including unset) keeps the legacy
/// curated library.  Returned as 0 (legacy) / 1 (generated).
inline int topologySpaceIndex() {
  const char* env = std::getenv("AMSYN_TOPOLOGY_SPACE");
  if (!env || !*env) return 0;
  const std::string v(env);
  return (v == "generated" || v == "composed") ? 1 : 0;
}

}  // namespace amsyn::core::envknobs
