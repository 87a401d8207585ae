#include "sizing/database.hpp"

#include <cmath>
#include <limits>

namespace amsyn::sizing {

double DesignDatabase::specDistance(const SpecSet& a, const SpecSet& b) {
  double dist = 0.0;
  std::size_t shared = 0;
  for (const auto& sa : a.specs()) {
    if (sa.isObjective()) continue;
    bool found = false;
    for (const auto& sb : b.specs()) {
      if (sb.isObjective() || sb.performance != sa.performance || sb.kind != sa.kind)
        continue;
      found = true;
      ++shared;
      const double norm = std::max(std::abs(sa.bound), std::abs(sb.bound));
      if (norm > 0) dist += std::abs(sa.bound - sb.bound) / norm;
      break;
    }
    if (!found) dist += 1.0;  // constraint the stored design never saw
  }
  if (shared == 0) return std::numeric_limits<double>::infinity();
  return dist;
}

std::optional<StoredDesign> DesignDatabase::nearest(const SpecSet& query) const {
  const StoredDesign* best = nullptr;
  double bestDist = std::numeric_limits<double>::infinity();
  for (const auto& d : designs_) {
    const double dist = specDistance(query, d.specs);
    if (dist < bestDist) {
      bestDist = dist;
      best = &d;
    }
  }
  if (!best) return std::nullopt;
  return *best;
}

SynthesisResult synthesizeWithDatabase(DesignDatabase& db, const PerformanceModel& model,
                                       const SpecSet& specs, const std::string& label,
                                       const SynthesisOptions& opts) {
  SynthesisOptions warm = opts;
  if (const auto seed = db.nearest(specs);
      seed && seed->x.size() == model.dimension()) {
    warm.startPoint = seed->x;
    // A good warm start wants exploitation, not exploration: cool fast.
    if (warm.anneal.initialTemperature <= 0.0) warm.anneal.initialAcceptance = 0.3;
    warm.anneal.stagnationStages = std::min<std::size_t>(warm.anneal.stagnationStages, 8);
  }
  SynthesisResult res = synthesize(model, specs, warm);
  if (res.feasible) db.store(StoredDesign{label, specs, res.x, res.performance});
  return res;
}

}  // namespace amsyn::sizing
