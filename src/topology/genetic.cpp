#include "topology/genetic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "numeric/rng.hpp"
#include "sim/stats.hpp"

namespace amsyn::topology {

namespace {

/// Map a unit gene to a design value, respecting log scaling.
double geneToValue(double g, const sizing::DesignVariable& v) {
  g = std::clamp(g, 0.0, 1.0);
  if (v.logScale && v.lo > 0) return v.lo * std::pow(v.hi / v.lo, g);
  return v.lo + g * (v.hi - v.lo);
}

struct Individual {
  std::size_t topo = 0;
  std::vector<double> genes;  // unit cube, length = max model dimension
  double fitness = 0.0;       // negated cost: larger is better
};

}  // namespace

GeneticResult geneticSelectAndSize(const TopologyLibrary& lib, const sizing::SpecSet& specs,
                                   const GeneticOptions& opts) {
  AMSYN_SPAN("genetic_select");
  num::Rng rng(opts.seed);
  const auto& entries = lib.entries();
  if (entries.empty()) throw std::invalid_argument("geneticSelectAndSize: empty library");

  std::size_t maxDim = 0;
  std::vector<std::unique_ptr<sizing::CostFunction>> costs;
  for (const auto& e : entries) {
    maxDim = std::max(maxDim, e.model->dimension());
    costs.push_back(std::make_unique<sizing::CostFunction>(*e.model, specs, opts.cost));
  }

  GeneticResult result;

  auto decode = [&](const Individual& ind) {
    const auto& vars = entries[ind.topo].model->variables();
    std::vector<double> x(vars.size());
    for (std::size_t i = 0; i < vars.size(); ++i) x[i] = geneToValue(ind.genes[i], vars[i]);
    return x;
  };
  // Fitness evaluation is the hot loop (the paper's evaluation-throughput
  // bottleneck) and is embarrassingly parallel: genomes are bred serially
  // from one RNG stream, then the whole batch is scored concurrently.
  // Scoring draws no random numbers, so the RNG stream — and therefore the
  // result — is bit-identical to a fully serial run at any thread count.
  // Duplicate genomes are common late in a run (elitism copies the best
  // individual forward, tournament selection re-breeds converged parents);
  // CostFunction::detailed routes through sizing::safeEvaluate, which
  // consults the process-wide evaluation cache (core/evalcache.hpp), so a
  // re-scored duplicate costs a hash lookup instead of a model evaluation.
  // Error-capture mode: CostFunction::detailed is already total, but a
  // malformed custom model can still throw from decode (bad variable list)
  // or from outside the cost containment.  Capturing per index keeps one
  // poisoned individual from aborting its siblings — their scores stay
  // bit-identical to a failure-free run.
  auto evaluateBatch = [&](std::vector<Individual>& batch, std::size_t first) {
    const std::size_t n = batch.size() - first;
    const auto errs = core::parallelForCaptured(n, [&](std::size_t i) {
      Individual& ind = batch[first + i];
      ind.fitness = -(*costs[ind.topo])(decode(ind));
      if (std::isnan(ind.fitness)) {  // belt and suspenders: never let NaN
        ind.fitness = -std::numeric_limits<double>::infinity();  // win a tournament
        sim::recordEvalFailure(core::EvalStatus::NanDetected);
      }
    });
    for (std::size_t i = 0; i < errs.size(); ++i) {
      if (!errs[i]) continue;
      batch[first + i].fitness = -std::numeric_limits<double>::infinity();
      // bad_alloc classifies as out_of_memory (it ends a flow upstream),
      // anything else internal_error.
      sim::recordEvalFailure(core::classifyException(errs[i]));
    }
    result.evaluations += batch.size() - first;
    static const auto cEvals =
        core::metrics::registry().counter("genetic.evaluations");
    core::metrics::add(cEvals, batch.size() - first);
  };

  // Random initial population spread across all topologies.
  std::vector<Individual> pop(opts.populationSize);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    pop[i].topo = i % entries.size();
    pop[i].genes.resize(maxDim);
    for (double& g : pop[i].genes) g = rng.uniform();
  }
  evaluateBatch(pop, 0);

  auto tournament = [&]() -> const Individual& {
    const Individual* best = &pop[rng.index(pop.size())];
    for (std::size_t k = 1; k < opts.tournamentSize; ++k) {
      const Individual& c = pop[rng.index(pop.size())];
      if (c.fitness > best->fitness) best = &c;
    }
    return *best;
  };

  Individual bestEver = *std::max_element(
      pop.begin(), pop.end(),
      [](const Individual& a, const Individual& b) { return a.fitness < b.fitness; });

  static const auto cGenerations =
      core::metrics::registry().counter("genetic.generations");
  for (std::size_t gen = 0; gen < opts.generations; ++gen) {
    core::metrics::add(cGenerations);
    std::vector<Individual> next;
    next.reserve(pop.size());
    next.push_back(bestEver);  // elitism (already scored)
    // Breed serially: selection, crossover, and mutation consume the RNG
    // stream in a fixed order.  Tournaments read only the previous
    // generation's fitness, so deferring the children's scores to the batch
    // below changes nothing.
    while (next.size() < pop.size()) {
      Individual child = tournament();
      const Individual& other = tournament();
      // Crossover: uniform gene mixing; the topology gene follows the
      // fitter parent (already `child`).
      if (rng.chance(opts.crossoverRate)) {
        for (std::size_t i = 0; i < maxDim; ++i)
          if (rng.chance(0.5)) child.genes[i] = other.genes[i];
      }
      // Mutation.
      for (double& g : child.genes)
        if (rng.chance(opts.mutationRate))
          g = std::clamp(g + rng.normal(0.0, opts.mutationSigma), 0.0, 1.0);
      if (rng.chance(opts.topologyMutationRate))
        child.topo = rng.index(entries.size());
      next.push_back(std::move(child));
    }
    evaluateBatch(next, 1);  // score this generation's children in parallel
    for (std::size_t i = 1; i < next.size(); ++i)
      if (next[i].fitness > bestEver.fitness) bestEver = next[i];
    pop = std::move(next);
  }

  for (const auto& ind : pop) result.populationShare[entries[ind.topo].name] += 1.0;
  for (auto& [k, v] : result.populationShare) v /= static_cast<double>(pop.size());

  result.topology = entries[bestEver.topo].name;
  result.x = decode(bestEver);
  const auto detail = costs[bestEver.topo]->detailed(result.x);
  result.performance = detail.performance;
  result.cost = detail.cost;
  result.feasible = detail.feasible;
  return result;
}

}  // namespace amsyn::topology
