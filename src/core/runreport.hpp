// Structured JSON run reports: one schema shared by the flow
// (core::flowRunReportJson), the bench_claim_* binaries (BENCH_*.json), and
// tests.  A report combines caller-supplied identity/values with a snapshot
// of the metrics registry (core/metrics.hpp) and the trace span aggregate
// (core/trace.hpp):
//
//   {
//     "report": "<name>",
//     "info":       { "<key>": "<string>", ... },
//     "values":     { "<key>": <number>, ... },
//     "counters":   { "<metric>": <integer>, ... },
//     "spans":      { "<path>": {"count":..,"total_s":..,"min_s":..,
//                                "max_s":..,"deltas":{"<metric>":..}} }
//   }
//
// Emission is deterministic given the same data: keys are sorted (std::map)
// or in insertion order (info/values), and doubles print with max_digits10
// so the JSON round-trips to the exact same bits.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace amsyn::core {

struct RunReport {
  std::string name;  ///< the "report" field
  /// Free-form string facts (topology chosen, failure reason, ...), emitted
  /// in insertion order.
  std::vector<std::pair<std::string, std::string>> info;
  /// Numeric results (phase ratios, speedups, ...), emitted in insertion
  /// order.
  std::vector<std::pair<std::string, double>> values;

  RunReport& addInfo(std::string key, std::string value);
  RunReport& addValue(std::string key, double value);

  std::string toJson() const;
  /// Write toJson() to `path` (trailing newline included).
  void write(const std::string& path) const;
};

/// JSON fragment helpers shared with the benches.
std::string jsonEscape(const std::string& s);
/// Round-trip-exact double formatting (max_digits10; nan/inf become null).
std::string jsonNumber(double v);

}  // namespace amsyn::core
