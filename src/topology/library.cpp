#include "topology/library.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "circuit/canonical.hpp"
#include "core/context.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "sizing/eqmodel.hpp"

namespace amsyn::topology {

using num::Interval;
using sizing::Compensation;
using sizing::OpampStructure;
using sizing::SpecKind;
using sizing::SpecSet;

void TopologyLibrary::add(TopologyEntry entry) {
  if (!index_.emplace(entry.name, entries_.size()).second)
    throw std::invalid_argument("TopologyLibrary: duplicate topology name '" + entry.name +
                                "'");
  entries_.push_back(std::move(entry));
}

const TopologyEntry& TopologyLibrary::byName(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    std::string msg = "TopologyLibrary: no topology named '" + name + "'; available (" +
                      std::to_string(entries_.size()) + "):";
    for (const auto& [n, _] : index_) msg += " " + n;
    throw std::out_of_range(msg);
  }
  return entries_[it->second];
}

namespace {

/// boundsBySampling over a per-axis point count: axis i takes points[i]
/// evenly spaced grid points (log-spaced on log-scale axes), a single point
/// sitting at the axis midpoint.
FeasibilityBounds sampleBounds(const sizing::PerformanceModel& model,
                               const std::vector<std::size_t>& points, double widen) {
  const auto& vars = model.variables();
  const std::size_t n = vars.size();
  FeasibilityBounds bounds;

  // Walk the full grid with a mixed-radix counter.
  std::vector<std::size_t> idx(n, 0);
  while (true) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = points[i] == 1
                           ? 0.5
                           : static_cast<double>(idx[i]) / static_cast<double>(points[i] - 1);
      const auto& v = vars[i];
      x[i] = (v.logScale && v.lo > 0) ? v.lo * std::pow(v.hi / v.lo, t)
                                      : v.lo + t * (v.hi - v.lo);
    }
    const auto perf = model.evaluate(x);
    for (const auto& [k, val] : perf) {
      if (k.rfind('_', 0) == 0) continue;  // skip meta performances
      auto [it, inserted] = bounds.emplace(k, Interval{val, val});
      if (!inserted)
        it->second = Interval{std::min(it->second.lo(), val), std::max(it->second.hi(), val)};
    }

    std::size_t d = 0;
    while (d < n && ++idx[d] == points[d]) idx[d++] = 0;
    if (d == n) break;
  }

  // Widen conservatively: grid sampling underestimates the reachable hull.
  // A strictly positive hull (power, ugf, area, noise — quantities that are
  // positive by construction) widens in the log domain, so the lower bound
  // scales down but can never cross zero.  Everything else widens linearly
  // about the midpoint; when the sampled hull itself never went negative
  // (swing's max(0, .) floor, say), the widened lower bound is clamped at
  // zero — the model cannot produce what the bound would otherwise promise.
  for (auto& [k, b] : bounds) {
    if (b.lo() > 0.0) {
      const double mid = std::sqrt(b.lo() * b.hi());
      const double r = std::pow(std::sqrt(b.hi() / b.lo()), widen);
      b = Interval{mid / r, mid * r};
    } else {
      const double mid = b.mid(), half = b.width() / 2.0;
      double lo = mid - half * widen;
      if (b.lo() >= 0.0 && lo < 0.0) lo = 0.0;
      b = Interval{lo, mid + half * widen};
    }
  }
  return bounds;
}

}  // namespace

FeasibilityBounds boundsBySampling(const sizing::PerformanceModel& model,
                                   std::size_t gridPerAxis, double widen) {
  // A zero count never wraps the grid counter; a widen below 1 (or NaN)
  // would shrink the hull below the sampled points it must contain.
  if (gridPerAxis == 0)
    throw std::invalid_argument("boundsBySampling: gridPerAxis must be at least 1");
  if (!(widen >= 1.0) || !std::isfinite(widen))
    throw std::invalid_argument("boundsBySampling: widen must be finite and at least 1");
  return sampleBounds(model, std::vector<std::size_t>(model.variables().size(), gridPerAxis),
                      widen);
}

namespace {

std::vector<HeuristicRule> otaRules() {
  std::vector<HeuristicRule> rules;
  rules.push_back({"single stage suffices for moderate gain",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "gain_db" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound <= 45.0 ? 2.0 : -3.0;
                     return score;
                   }});
  rules.push_back({"no compensation: better for high speed",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "ugf" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound >= 2e7 ? 1.0 : 0.0;
                     return score;
                   }});
  rules.push_back({"one current branch: favored for low power",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "power" &&
                           (s.kind == SpecKind::Minimize || s.kind == SpecKind::LessEqual))
                         score += 1.0;
                     return score;
                   }});
  return rules;
}

std::vector<HeuristicRule> twoStageRules() {
  std::vector<HeuristicRule> rules;
  rules.push_back({"two gain stages needed above ~45 dB",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "gain_db" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound > 45.0 ? 3.0 : -1.0;
                     return score;
                   }});
  rules.push_back({"output stage gives rail-to-rail-ish swing",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "swing" && s.kind == SpecKind::GreaterEqual)
                         score += s.bound >= 3.0 ? 1.5 : 0.0;
                     return score;
                   }});
  rules.push_back({"second branch costs power",
                   [](const SpecSet& specs) {
                     double score = 0.0;
                     for (const auto& s : specs.specs())
                       if (s.performance == "power" && s.kind == SpecKind::Minimize)
                         score += -0.5;
                     return score;
                   }});
  return rules;
}

/// Largest grid g >= 2 with g^dim <= ~4k model evaluations: generated
/// entries trade per-axis resolution for bounded library-construction cost
/// (the legacy cells keep their historical 5/4 grids).
std::size_t adaptiveGrid(std::size_t dim) {
  std::size_t g = 2;
  for (std::size_t cand = 3; cand <= 8; ++cand) {
    double evals = 1.0;
    for (std::size_t i = 0; i < dim; ++i) evals *= static_cast<double>(cand);
    if (evals <= 4096.0) g = cand;
  }
  return g;
}

int cascodeCount(const OpampStructure& s) {
  return int(s.inputCascode) + int(s.loadCascode) + int(s.tailCascode) +
         int(s.sinkCascode);
}

std::vector<HeuristicRule> rulesFor(const OpampStructure& s, TopologySpace space) {
  // Family rules: a two-stage scores the two-stage rules, a single-stage the
  // OTA rules.  The legacy menu stops there; block-specific rules ride on
  // top in the generated space.
  std::vector<HeuristicRule> rules = s.secondStage ? twoStageRules() : otaRules();
  if (space == TopologySpace::Legacy) return rules;
  if (const int k = cascodeCount(s)) {
    rules.push_back({"cascodes raise achievable gain but cost headroom",
                     [k](const SpecSet& specs) {
                       double score = 0.0;
                       for (const auto& sp : specs.specs()) {
                         if (sp.performance == "gain_db" &&
                             sp.kind == SpecKind::GreaterEqual && sp.bound > 75.0)
                           score += 1.0 * k;
                         if (sp.performance == "swing" &&
                             sp.kind == SpecKind::GreaterEqual)
                           score -= 0.5 * k;
                       }
                       return score;
                     }});
  }
  if (s.comp == Compensation::MillerNulled) {
    rules.push_back({"nulling resistor recovers phase margin",
                     [](const SpecSet& specs) {
                       double score = 0.0;
                       for (const auto& sp : specs.specs())
                         if (sp.performance == "pm" && sp.kind == SpecKind::GreaterEqual &&
                             sp.bound >= 70.0)
                           score += 1.0;
                       return score;
                     }});
  }
  if (s.isLegacyOta() || s.isLegacyTwoStage()) {
    // Provenance: the historical cells are silicon-validated references;
    // prefer them over an equal-scoring generated sibling (the name
    // tie-break alone would rank "gen/..." first).
    rules.push_back({"hand-validated reference cell",
                     [](const SpecSet&) { return 0.05; }});
  }
  return rules;
}

/// One entry per structure of `space`, in enumeration order: the legacy menu
/// is the two historical cells, the generated space every valid structure.
/// Each entry is a pure function of its structure (models are pure, each
/// sampling walks its own grid in a fixed order), so the entries are built
/// in parallel and added by index: thread count, eval-cache state and run
/// count change no bit.
TopologyLibrary buildLibrary(TopologySpace space, const circuit::Process& proc,
                             double loadCap) {
  AMSYN_SPAN("library_build");  // memo misses only: amplifierLibrary's cold path
  std::vector<OpampStructure> structures;
  for (const OpampStructure& s : sizing::enumerateOpampStructures())
    if (space == TopologySpace::Generated || s.isLegacyOta() || s.isLegacyTwoStage())
      structures.push_back(s);

  auto entries = core::parallelMap(structures.size(), [&](std::size_t i) {
    const OpampStructure& s = structures[i];
    TopologyEntry e;
    e.name = s.name();
    e.model = std::make_shared<sizing::ComposedOpampModel>(s, proc, loadCap);
    const std::size_t dim = e.model->variables().size();
    const std::size_t grid = s.isLegacyOta()        ? 5
                             : s.isLegacyTwoStage() ? 4
                                                    : adaptiveGrid(dim);
    // Grid points that differ only on the unread axis evaluate identically,
    // so one point on it yields the full grid's hull bit for bit.
    std::vector<std::size_t> points(dim, grid);
    if (const auto unread = s.unreadVariable()) points[*unread] = 1;
    e.bounds = sampleBounds(*e.model, points, /*widen=*/1.15);
    e.rules = rulesFor(s, space);
    e.complexity = s.deviceCount();
    return e;
  });

  TopologyLibrary lib;
  for (TopologyEntry& e : entries) lib.add(std::move(e));
  return lib;
}

}  // namespace

TopologyLibrary amplifierLibrary(const circuit::Process& proc, double loadCap,
                                 std::optional<TopologySpace> requested) {
  const TopologySpace space =
      requested.value_or(core::ExecutionContext::current().config().topologySpace);
  // Memoize per (space, process, loadCap): bounds sampling over the full
  // generated space is ~7.5 x 10^4 model evaluations, and even the two
  // legacy entries cost ~5 x 10^3 — too much to repeat on every flow
  // start.  Keyed by content digest, not address, so corner/perturbed
  // processes get their own libraries; models own a Process copy, so a
  // cached library outliving the caller's process instance is safe.
  core::cache::Hasher128 h;
  h.mix(static_cast<std::uint64_t>(space));
  circuit::hashProcess(h, proc);
  h.mixDouble(loadCap);
  const auto key = h.digest();

  static std::mutex mu;
  static std::map<core::cache::Digest128, TopologyLibrary> memo;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
  }
  TopologyLibrary lib = buildLibrary(space, proc, loadCap);
  std::lock_guard<std::mutex> lock(mu);
  return memo.emplace(key, std::move(lib)).first->second;
}

}  // namespace amsyn::topology
