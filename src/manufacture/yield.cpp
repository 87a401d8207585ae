#include "manufacture/yield.hpp"

#include <algorithm>

#include "numeric/rng.hpp"

namespace amsyn::manufacture {

namespace {
constexpr std::uint64_t kSeed = 1;  ///< Monte Carlo sample stream
}  // namespace

YieldResult yieldMonteCarlo(const ModelFactory& factory, const circuit::Process& nominal,
                            const std::vector<double>& x, const sizing::SpecSet& specs,
                            const YieldOptions& opts) {
  num::Rng rng(kSeed);
  YieldResult res;
  std::size_t pass = 0;

  for (std::size_t s = 0; s < opts.samples; ++s) {
    std::vector<double> c(VariationSpace::kDims);
    for (double& ci : c) ci = rng.uniform();
    const circuit::Process p = opts.space.apply(nominal, c);
    const auto model = factory(p);
    const auto perf = model->evaluate(x);
    if (specs.satisfied(perf, 0.0)) ++pass;

    for (const auto& spec : specs.specs()) {
      if (spec.isObjective()) continue;
      auto it = perf.find(spec.performance);
      if (it == perf.end()) continue;
      auto [wit, inserted] = res.worstSeen.try_emplace(spec.performance, it->second);
      if (!inserted) {
        wit->second = spec.kind == sizing::SpecKind::GreaterEqual
                          ? std::min(wit->second, it->second)
                          : std::max(wit->second, it->second);
      }
    }
  }

  res.samples = opts.samples;
  res.yield = num::wilsonInterval(pass, opts.samples);
  return res;
}

}  // namespace amsyn::manufacture
