// Golden-file regression test for the flow run-report JSON schema
// (core/runreport.hpp).  The report's *shape* — key set, nesting, section
// order — is a public interface consumed by downstream tooling (the
// BENCH_*.json scrapers, CI trend dashboards), so accidental schema drift
// must fail loudly.  Values are volatile (timings, counter magnitudes), so
// the comparison masks every JSON number and neutralizes the spans section
// (span *paths* depend on which pool worker opened a nested span first).
//
// This test lives in its own binary on purpose: metrics-registry counters
// register lazily on first use, so the registered-counter *set* — and
// therefore the golden key set — must not depend on whichever unrelated
// tests happened to run earlier in the same process.
//
// Regenerating the golden after an intentional schema change:
//
//   cmake --build build --target report_schema_test
//   AMSYN_REGEN_GOLDEN=1 ./build/tests/report_schema_test
//
// then review the diff of tests/golden/flow_run_report.golden.json.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/parallel.hpp"
#include "core/runreport.hpp"

namespace core = amsyn::core;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

#ifndef AMSYN_GOLDEN_DIR
#error "AMSYN_GOLDEN_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace {

const std::string kGoldenPath =
    std::string(AMSYN_GOLDEN_DIR) + "/flow_run_report.golden.json";

/// Replace every JSON number literal (outside strings) with '#' so the
/// comparison pins the schema, not the run's measurements.
std::string maskNumbers(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  bool inString = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (inString) {
      out.push_back(c);
      if (c == '\\' && i + 1 < json.size()) out.push_back(json[++i]);
      else if (c == '"') inString = false;
      continue;
    }
    if (c == '"') {
      inString = true;
      out.push_back(c);
      continue;
    }
    const bool startsNumber =
        std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < json.size() &&
         std::isdigit(static_cast<unsigned char>(json[i + 1])));
    if (!startsNumber) {
      out.push_back(c);
      continue;
    }
    while (i < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[i])) || json[i] == '.' ||
            json[i] == 'e' || json[i] == 'E' || json[i] == '+' || json[i] == '-'))
      ++i;
    --i;
    out.push_back('#');
  }
  return out;
}

/// Drop the spans payload: span paths encode which caller's stack a worker
/// thread inherited, which is scheduling-dependent by nature.  The section
/// key itself stays, so dropping spans from the schema still fails.
std::string neutralizeSpans(const std::string& json) {
  const auto pos = json.find("\"spans\"");
  if (pos == std::string::npos) return json;
  return json.substr(0, pos) + "\"spans\": \"<masked>\"\n}\n";
}

std::string normalizedFlowReport() {
  // Pinned configuration: fixed seed, fixed thread count — the same flow
  // parallel_test's Determinism suite proves bit-identical across thread
  // counts, so this report is reproducible everywhere.
  core::ExecutionContext ctx(core::ContextConfig::fromEnv());
  core::ContextScope scope(ctx);
  core::ScopedThreadPool scoped(2);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0)
      .atLeast("ugf", 1e7)
      .atLeast("pm", 60.0)
      .atMost("power", 4e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 3;
  opts.synthesis.seed = 11;
  opts.synthesis.multistarts = 2;
  opts.synthesis.anneal.stagnationStages = 2;
  opts.synthesis.anneal.coolingRate = 0.7;
  opts.synthesis.refineEvaluations = 40;
  opts.layout.annealPlacement = false;
  const auto result = core::synthesizeAmplifier(specs, ckt::defaultProcess(), opts);
  return neutralizeSpans(maskNumbers(core::flowRunReportJson(result)));
}

}  // namespace

TEST(ReportSchema, FlowRunReportMatchesGolden) {
  const std::string actual = normalizedFlowReport();

  if (const char* regen = std::getenv("AMSYN_REGEN_GOLDEN"); regen && *regen == '1') {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "regenerated " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " — regenerate with AMSYN_REGEN_GOLDEN=1 (see header)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << "flow run-report schema drifted; if intentional, regenerate via "
         "AMSYN_REGEN_GOLDEN=1 ./build/tests/report_schema_test and review the diff";
}

TEST(ReportSchema, MaskingIsStableAcrossRuns) {
  // The masked form itself must be deterministic, or the golden comparison
  // would flake: two fresh flows in the same process produce byte-identical
  // normalized reports.
  EXPECT_EQ(normalizedFlowReport(), normalizedFlowReport());
}

TEST(RunReportRatio, ZeroDenominatorEmitsNullNotZero) {
  // No traffic must not read as a 0% rate.
  core::RunReport r;
  r.name = "ratio_test";
  r.addRatio("no_traffic", 0.0, 0.0).addRatio("real_rate", 1.0, 4.0);
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"no_traffic\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"real_rate\": 0.25"), std::string::npos) << json;
}
