// The flow benchmark: three workloads over the public amsyn API, each at a
// pinned pool width, with an output check, a work-repeat check and, on
// request, a separate traced pass that times the layer calls.
//
//   flow_bench --workload amp_flow|robust_corners|gen_batch --seed N
//              --seconds S --trace 0|1
//
// A run takes designs from the workload's fixed pool, in an order drawn from
// the seed, and runs them untraced in rounds, each after its own setup.
// After every design a fixed reference kernel is timed, and each round's
// times are scaled to a host on which that kernel takes kReferenceSeconds
// (the raw times stay in the detail line).  Timings are medians over rounds;
// every round must repeat round 0's result digests and, on serial
// workloads, its per-design work counters.  Every delivered design is then
// re-checked independently.  With --trace 1 a
// separate pass replays each design's layer calls under the benchmark's own
// timers.  The last stdout line is the result object perfbench/run.py
// passes on; the line before it holds the full detail (every statistic,
// null where undefined, plus host calibration).  perfbench/README.md lists
// the workloads, the layers each loads and the predicted pairings.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchstats.hpp"
#include "core/celllayout.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/performances.hpp"
#include "core/trace.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "topology/library.hpp"
#include "topology/select.hpp"

namespace {

using namespace amsyn;
using perfbench::Counters;
using perfbench::jsonNumber;
using Clock = std::chrono::steady_clock;
using Opt = std::optional<double>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Tolerance the flow's verify stages grant (core/flowgraph.cpp); the
/// output check judges delivered designs by the same contract.
constexpr double kVerifyTolerance = 0.15;
/// Seeded interior points of the variation box at which the output check
/// re-evaluates each robust design.
constexpr std::size_t kVariationSamples = 32;
constexpr double kLoadCap = 5e-12;
/// Seed of every workload's design pool, chosen so every pool design
/// closes: the benchmark measures speed, not the failure path.
constexpr std::uint64_t kPoolSeed = 1;
/// Rounds per run over the same designs, each after its own setup.
/// Timings are medians over rounds, which a transient slow phase of the
/// host cannot move, and every round must repeat round 0's work exactly.
constexpr std::size_t kRounds = 5;

/// Counters whose per-design values must repeat exactly on serial
/// workloads (the work-determinism check).
const std::vector<std::string> kWorkCounters = {
    "sizing.cost_evals", "route.expansions", "corners.vertex_evals",
    "core.cache.hits",   "anneal.moves_attempted", "sim.dc_solves"};
/// Every counter the per-layer metrics read.
const std::vector<std::string> kLayerCounters = {
    "sizing.cost_evals",      "route.expansions",      "corners.vertex_evals",
    "core.cache.hits",        "core.cache.misses",     "core.cache.bypasses",
    "anneal.moves_attempted", "anneal.moves_accepted", "place.moves_attempted",
    "place.moves_accepted",   "sim.dc_solves",         "sim.newton_iterations",
    "sim.lu_factorizations",  "sim.lu_reuses",         "sim.ac_points"};

Counters readCounters() {
  Counters c;
  for (const auto& name : kLayerCounters) c[name] = core::metrics::registry().total(name);
  return c;
}

Counters workOnly(const Counters& c) {
  Counters w;
  for (const auto& name : kWorkCounters) w[name] = c.count(name) ? c.at(name) : 0;
  return w;
}

const circuit::Process& proc() { return circuit::defaultProcess(); }

/// A context that reads no environment: explicit defaults, the workload's
/// pool width, and a private eval cache and surrogate store so every design
/// starts from the same cache state.
std::unique_ptr<core::ExecutionContext> freshContext(std::size_t width) {
  core::ContextConfig cfg;
  cfg.threads = width;
  return std::make_unique<core::ExecutionContext>(cfg, core::ContextIsolation{true, true});
}

/// A one-worker pool whose worker is parked for the scope.  parallelFor
/// runs indices on the calling thread *and* the pool's workers, so a plain
/// width-1 pool still evaluates on two threads and the order of cache hits
/// varies.  With the worker parked, the caller runs every index (it also
/// drains the queued helper tasks itself), so a serial workload executes on
/// exactly one thread and its work counters repeat exactly.
class SerialPool {
 public:
  SerialPool() {
    scoped_.pool().submit([this] {
      std::unique_lock<std::mutex> lk(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return parked_; });
  }
  ~SerialPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  SerialPool(const SerialPool&) = delete;
  SerialPool& operator=(const SerialPool&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  core::ScopedThreadPool scoped_{1};  // last: joined before mu_/cv_ go away
};

/// Runs fn in a fresh isolated context on a parked serial pool, so every
/// replay and check sees the same cache state and thread count as the
/// serial designs themselves.
template <typename Fn>
void serially(Fn&& fn) {
  SerialPool pool;
  auto ctx = freshContext(1);
  core::ContextScope scope(*ctx);
  fn();
}

sizing::SpecSet electricalOnly(const sizing::SpecSet& specs) {
  sizing::SpecSet e;
  for (const auto& s : specs.specs())
    if (!s.isObjective() && core::isElectricalPerformance(s.performance))
      e.require(s.performance, s.kind, s.bound, s.weight);
  return e;
}

// ---------------------------------------------------------------------------
// Host calibration (diagnostics only, never end-to-end metrics)

/// Seconds for a fixed single-core integer loop.
double spinSeconds() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20'000'000; ++i) x ^= (x << 13) ^ (x >> 7) ^ static_cast<std::uint64_t>(i);
  volatile std::uint64_t sink = x;
  (void)sink;
  return since(t0);
}

/// Effective cores at `n` threads: n * t(1 thread) / t(n threads running
/// the same loop concurrently).
double scalingProbe(std::size_t n) {
  const double one = spinSeconds();
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back([] { spinSeconds(); });
  for (auto& t : threads) t.join();
  return static_cast<double>(n) * one / since(t0);
}

/// Seconds one referenceSeconds() call takes on the reference host, to
/// which every reported time is scaled.  About what the kernel took on a
/// quiet 4-vCPU VM with GCC 12.2; the value only sets the unit.
constexpr double kReferenceSeconds = 0.005;

/// Seconds for a fixed single-thread kernel that builds, walks and frees
/// string-keyed ordered maps: the allocation and pointer-chasing mix the
/// flows spend their time in (Performance maps, caches, netlists).  Other
/// tenants of a shared host slow this mix far more than the ALU spin above
/// (measured: a 28% slower round next to a 10% slower spin), and the
/// kernel's time tracks the flows' round times (correlation 0.87).
void referenceKernel() {
  double acc = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    std::map<std::string, double> m;
    for (int i = 0; i < 2000; ++i) m["perf_" + std::to_string(i * 7919 % 2000)] = i;
    for (const auto& kv : m) acc += kv.second;
  }
  volatile double sink = acc;
  (void)sink;
}

/// Wall seconds for the reference kernel run once on each of `threads`
/// threads at the same time: as many as execute the workload's designs.
double referenceSeconds(std::size_t threads) {
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> helpers;
    for (std::size_t i = 1; i < threads; ++i) helpers.emplace_back(referenceKernel);
    referenceKernel();
  }
  return since(t0);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Workloads

struct Design {
  sizing::SpecSet specs;
  std::uint64_t seed = 1;
};

/// What one design delivered, as the untraced run and the checks see it.
struct Outcome {
  bool claimed = false;  ///< the program reported success
  bool passed = false;   ///< the independent output check passed
  double seconds = 0.0;
  std::size_t attempts = 0;  ///< flow attempts or cutting-plane rounds
  std::uint64_t flowSeed = 0;  ///< the seed the flow actually ran with
  double powerW = 0.0;
  double areaLambda2 = 0.0;
  std::uint64_t digest = 0;
  std::string error;  ///< exception the program threw, if any
  Counters work;  ///< per-design counter deltas (serial workloads)
  core::FlowResult flow;
  manufacture::RobustResult robust;
};

/// Per-layer times of the traced pass, summed over the traced designs.
struct LayerTimes {
  std::size_t designs = 0;
  double designSeconds = 0.0;  ///< untraced end-to-end time of those designs
  double library = 0.0, select = 0.0, geometry = 0.0, extract = 0.0, measure = 0.0,
         worstCorner = 0.0, sizing = 0.0;
  double librarySamples = 0.0;  ///< uncached library builds timed
  double libraryBuild = 0.0;    ///< their summed time
  std::uint64_t costEvals = 0;   ///< counted inside the select/sizing calls
  std::uint64_t expansions = 0;  ///< counted inside the geometry calls
  double layered() const {
    return library + select + geometry + extract + measure + worstCorner + sizing;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  virtual std::size_t width() const = 0;
  /// Designs per second of --seconds: fixes the design count from the
  /// arguments alone, so the same arguments always run the same work.
  virtual double nominalRate() const = 0;
  virtual Design draw(perfbench::SplitMix& rng) const = 0;
  /// One full setup: context, pinned pool and the workload's one-off work.
  /// Returns its seconds up to the point the first design could start;
  /// tearing the setup down again is not part of it, and neither is
  /// parking a serial pool's worker, which only the benchmark does.
  virtual double setupOnce(std::size_t rep) = 0;
  /// Serial workloads (width 1) run every design on the calling thread
  /// with the pool's worker parked, so their per-design work counters must
  /// repeat exactly.  Wider pools run on their workers plus the caller, and
  /// concurrent cache hits legitimately vary.
  bool serial() const { return width() == 1; }
  /// Threads that execute the workload's designs.
  std::size_t threads() const { return serial() ? 1 : width() + 1; }
  /// Run designs [begin, end) untraced into out and return their wall
  /// seconds.  Serial workloads time and count each design, gen_batch runs
  /// them as one batch.
  virtual double run(const std::vector<Design>& designs, std::size_t begin,
                     std::size_t end, std::vector<Outcome>& out) = 0;
  /// Designs per run() call.
  virtual std::size_t chunk() const { return 1; }
  /// Setups per round: more where one setup is too short to time alone.
  virtual std::size_t setupsPerRound() const { return 1; }
  /// Result check beyond the rounds' repeat check; returns mismatches.
  virtual std::vector<std::string> widthCheck(const std::vector<Design>&,
                                              const std::vector<Outcome>&) {
    return {};
  }
  virtual void check(const Design& d, Outcome& o) = 0;
  virtual void trace(const Design& d, const Outcome& o, LayerTimes& t) = 0;
};

/// Shared by the two serial workloads: one fresh isolated context per
/// design, pool pinned at width 1, per-design counter deltas.
class SerialWorkload : public Workload {
 public:
  std::size_t width() const override { return 1; }
  /// A user's one-off cost before a serial design: the pinned pool and the
  /// context.  It takes tens of microseconds, so each round times many.
  std::size_t setupsPerRound() const override { return 20; }
  double run(const std::vector<Design>& designs, std::size_t begin, std::size_t end,
             std::vector<Outcome>& out) override {
    double wall = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = runOne(designs[i]);
      wall += out[i].seconds;
    }
    return wall;
  }

 protected:
  Outcome runOne(const Design& d) {
    Outcome o;
    serially([&] {
      const Counters before = readCounters();
      const auto t0 = Clock::now();
      try {
        o = execute(d);
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      o.seconds = since(t0);
      o.work = perfbench::delta(readCounters(), before);
    });
    return o;
  }
  virtual Outcome execute(const Design& d) = 0;
};

core::FlowOptions flowOptions(topology::TopologySpace space, std::uint64_t seed) {
  core::FlowOptions opts;
  opts.loadCap = kLoadCap;
  opts.topologySpace = space;
  opts.seed = seed;
  return opts;
}

std::uint64_t flowDigest(const core::FlowResult& r) {
  perfbench::Digest h;
  h.add(std::uint64_t{r.success}).add(r.topology).add(r.designPoint).add(r.cell.areaLambda2);
  return h.value();
}

/// Independent check of a delivered amplifier: re-measure its annotated
/// netlist and judge it against the design's electrical specs.
void checkAmplifier(const Design& d, Outcome& o) {
  o.claimed = o.flow.success;
  if (o.claimed) {
    const auto m = core::measureAmplifier(o.flow.cell.annotated, proc());
    o.passed = !m.count("_infeasible") && electricalOnly(d.specs).satisfied(m, kVerifyTolerance);
    if (m.count("power")) o.powerW = m.at("power");
  }
  o.areaLambda2 = o.flow.cell.areaLambda2;
  o.attempts = o.flow.redesigns + 1;
}

/// Replays one flow's layer calls: the library once (the flow keeps it for
/// all attempts), then per attempt selection with the attempt's seed and
/// annealing budget on the design's specs, cell geometry, extraction and
/// the pre/post-layout measurements.
void traceFlow(const Design& d, const Outcome& o, topology::TopologySpace space,
               LayerTimes& t) {
  auto t0 = Clock::now();
  const auto lib = topology::amplifierLibrary(proc(), kLoadCap, space);
  t.library += since(t0);
  for (std::size_t attempt = 0; attempt < o.attempts; ++attempt) {
    // The budget TopologySelectStage gives a redesign (core/flowgraph.cpp).
    sizing::SynthesisOptions sopts;
    sopts.seed = o.flowSeed + attempt;
    if (attempt > 0) {
      sopts.anneal.movesPerStage =
          std::max<std::size_t>(sopts.anneal.movesPerStage, 400 * (attempt + 1));
      sopts.anneal.stagnationStages = 20;
      sopts.refineEvaluations = std::max<std::size_t>(sopts.refineEvaluations, 800);
    }
    const std::uint64_t evals0 = core::metrics::registry().total("sizing.cost_evals");
    t0 = Clock::now();
    (void)topology::selectAndSize(lib, d.specs, sopts);
    t.select += since(t0);
    t.costEvals += core::metrics::registry().total("sizing.cost_evals") - evals0;

    core::CellLayoutOptions lopts;
    lopts.seed = o.flowSeed + attempt;
    const std::uint64_t exp0 = core::metrics::registry().total("route.expansions");
    t0 = Clock::now();
    auto cell = core::layoutCellGeometry(o.flow.schematic, proc(), lopts);
    t.geometry += since(t0);
    t.expansions += core::metrics::registry().total("route.expansions") - exp0;

    t0 = Clock::now();
    core::extractCell(o.flow.schematic, proc(), cell);
    t.extract += since(t0);

    t0 = Clock::now();
    (void)core::measureAmplifier(o.flow.schematic, proc());
    (void)core::measureAmplifier(o.flow.cell.annotated, proc());
    t.measure += since(t0);
  }
}

/// amp_flow: the quickstart-style spec flow, legacy space, serial.
class AmpFlow : public SerialWorkload {
 public:
  std::string name() const override { return "amp_flow"; }
  double nominalRate() const override { return 3.5; }
  Design draw(perfbench::SplitMix& rng) const override {
    Design d;
    d.specs.atLeast("gain_db", rng.uniform(62.0, 66.0))
        .atLeast("ugf", rng.uniform(2.5e6, 3.5e6))
        .atLeast("pm", rng.uniform(48.0, 52.0))
        .atMost("power", rng.uniform(4.5e-3, 5.5e-3))
        .minimize("power", 0.3, 1e-3);
    d.seed = 1 + rng.next() % 1000;
    return d;
  }
  /// Legacy libraries are not memoized: every flow builds its own, so that
  /// build is per-design work and stays out of setup.
  double setupOnce(std::size_t) override {
    const auto t0 = Clock::now();
    core::ScopedThreadPool pool(1);
    auto ctx = freshContext(1);
    core::ContextScope scope(*ctx);
    return since(t0);
  }
  void check(const Design& d, Outcome& o) override { checkAmplifier(d, o); }
  void trace(const Design& d, const Outcome& o, LayerTimes& t) override {
    // Legacy libraries are never memoized: every call is a full build.
    const double library0 = t.library;
    traceFlow(d, o, topology::TopologySpace::Legacy, t);
    t.libraryBuild += t.library - library0;
    t.librarySamples += 1;
  }

 protected:
  Outcome execute(const Design& d) override {
    Outcome o;
    o.flowSeed = d.seed;
    o.flow = core::synthesizeAmplifier(
        d.specs, proc(), flowOptions(topology::TopologySpace::Legacy, d.seed));
    o.digest = flowDigest(o.flow);
    return o;
  }
};

/// robust_corners: cutting-plane robust synthesis, bench_claim_corners specs.
class RobustCorners : public SerialWorkload {
 public:
  std::string name() const override { return "robust_corners"; }
  double nominalRate() const override { return 5.0; }
  Design draw(perfbench::SplitMix& rng) const override {
    Design d;
    d.specs.atLeast("gain_db", 66.0)
        .atLeast("ugf", 3e6)
        .atLeast("pm", 50.0)
        .atMost("power", 8e-3)
        .minimize("power", 0.3, 1e-3);
    d.seed = 1 + rng.next() % 100000;
    return d;
  }
  double setupOnce(std::size_t) override {
    const auto t0 = Clock::now();
    core::ScopedThreadPool pool(1);
    auto ctx = freshContext(1);
    core::ContextScope scope(*ctx);
    const auto model = factory()(proc());
    (void)model->evaluate(model->initialPoint());
    return since(t0);
  }
  /// Independent of robustSynthesize's own final audit, which hunts each
  /// constraint's worst vertex through the eval cache: evaluate the model
  /// directly at the returned point on kVariationSamples seeded interior
  /// points of the variation box, and judge every point against the specs
  /// at the flow's verify tolerance.
  void check(const Design& d, Outcome& o) override {
    o.claimed = o.robust.robust.feasible && o.robust.robustFeasibleAtCorners;
    bool ok = o.claimed;
    const auto specs = electricalOnly(d.specs);
    perfbench::SplitMix rng(d.seed);
    for (std::size_t k = 0; ok && k < kVariationSamples; ++k) {
      std::vector<double> corner(manufacture::VariationSpace::kDims);
      for (double& c : corner) c = rng.uniform(0.0, 1.0);
      const auto perf = factory()(space_.apply(proc(), corner))->evaluate(o.robust.robust.x);
      ok = !perf.count("_infeasible") && specs.satisfied(perf, kVerifyTolerance);
    }
    o.passed = ok;
    const auto& perf = o.robust.robust.performance;
    if (perf.count("power")) o.powerW = perf.at("power");
    // No layout here: the sizing model's active-area estimate stands in.
    if (perf.count("area")) o.areaLambda2 = perf.at("area") / (proc().lambda * proc().lambda);
    o.attempts = o.robust.rounds;
  }
  void trace(const Design& d, const Outcome& o, LayerTimes& t) override {
    sizing::SynthesisOptions sopts;
    sopts.seed = d.seed;
    const auto model = factory()(proc());
    const std::uint64_t evals0 = core::metrics::registry().total("sizing.cost_evals");
    auto t0 = Clock::now();
    (void)sizing::synthesize(*model, d.specs, sopts);
    t.sizing += since(t0);
    t.costEvals += core::metrics::registry().total("sizing.cost_evals") - evals0;
    // One worst-corner hunt per constraint per cutting-plane round.
    t0 = Clock::now();
    for (std::size_t round = 0; round < std::max<std::size_t>(o.robust.rounds, 1); ++round)
      for (const auto& spec : d.specs.specs())
        if (!spec.isObjective())
          (void)manufacture::worstCaseCorner(factory(), proc(), space_, o.robust.robust.x,
                                             spec);
    t.worstCorner += since(t0);
  }

 protected:
  Outcome execute(const Design& d) override {
    manufacture::RobustOptions opts;
    opts.synthesis.seed = d.seed;
    Outcome o;
    o.robust = manufacture::robustSynthesize(factory(), proc(), space_, d.specs, opts);
    perfbench::Digest h;
    h.add(o.robust.robust.x).add(o.robust.robust.cost)
        .add(static_cast<std::uint64_t>(o.robust.activeCorners));
    o.digest = h.value();
    return o;
  }

 private:
  static manufacture::ModelFactory factory() {
    return [](const circuit::Process& p) {
      return sizing::makeTwoStageCornerModel(p, proc(), kLoadCap);
    };
  }
  manufacture::VariationSpace space_;
};

/// gen_batch: synthesizeBatch over a mixed spec set in the generated space.
class GenBatch : public Workload {
 public:
  static constexpr std::size_t kBatch = 8;
  static constexpr std::size_t kWidth = 2;
  static constexpr double kMaxActiveArea = 4e-9;  ///< m^2, ~25000 lambda^2

  std::string name() const override { return "gen_batch"; }
  std::size_t width() const override { return kWidth; }
  double nominalRate() const override { return 5.0; }
  std::size_t chunk() const override { return kBatch; }
  Design draw(perfbench::SplitMix& rng) const override {
    Design d;
    switch (rng.next() % 3) {
      case 0:
        d.specs.atLeast("gain_db", rng.uniform(60.0, 70.0))
            .atLeast("ugf", rng.uniform(2e6, 4e6))
            .atLeast("pm", rng.uniform(45.0, 55.0));
        break;
      case 1:
        d.specs.atLeast("gain_db", rng.uniform(40.0, 50.0))
            .atLeast("ugf", rng.uniform(5e6, 1e7))
            .atLeast("pm", rng.uniform(55.0, 65.0));
        break;
      default:
        d.specs.atLeast("gain_db", rng.uniform(68.0, 76.0))
            .atLeast("ugf", rng.uniform(1e6, 2e6))
            .atLeast("pm", rng.uniform(50.0, 60.0))
            .atMost("power", rng.uniform(4e-3, 6e-3));
        break;
    }
    // Bounded active area keeps every cell's routing job comparable, so no
    // single design sets a batch's wall time.
    d.specs.atMost("area", kMaxActiveArea).minimize("power", 0.3, 1e-3);
    d.seed = 1 + rng.next() % 1000;
    return d;
  }
  /// The one-off cost a batch user pays: context, pool and the generated
  /// library memo.  Each repetition perturbs the load capacitance by a few
  /// parts per billion so it builds a cold memo entry; repetition 0 builds
  /// the entry the batches then use.
  double setupOnce(std::size_t rep) override {
    const auto t0 = Clock::now();
    core::ScopedThreadPool pool(width());
    auto ctx = freshContext(width());
    core::ContextScope scope(*ctx);
    const double cl = kLoadCap * (1.0 + 1e-9 * static_cast<double>(rep));
    const auto lib = topology::amplifierLibrary(proc(), cl, topology::TopologySpace::Generated);
    return since(t0);
  }
  double run(const std::vector<Design>& designs, std::size_t begin, std::size_t end,
             std::vector<Outcome>& out) override {
    auto batch = runBatch(designs, begin, end, width());
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = std::move(batch.first[i - begin]);
      // Per-design latency is the job's own stage time.
      for (const auto& rec : out[i].flow.stageRecords) out[i].seconds += rec.seconds;
    }
    return batch.second;
  }
  void check(const Design& d, Outcome& o) override { checkAmplifier(d, o); }
  /// Results must not depend on the width: the first batch again at 1.
  std::vector<std::string> widthCheck(const std::vector<Design>& designs,
                                      const std::vector<Outcome>& out) override {
    std::vector<std::string> bad;
    const std::size_t end = std::min(kBatch, designs.size());
    const auto serial = runBatch(designs, 0, end, 1);
    for (std::size_t i = 0; i < end; ++i)
      if (serial.first[i].digest != out[i].digest)
        bad.push_back("design " + std::to_string(i) + " digest at width 1");
    return bad;
  }
  void trace(const Design& d, const Outcome& o, LayerTimes& t) override {
    traceFlow(d, o, topology::TopologySpace::Generated, t);
    if (t.librarySamples < 2) {  // cold builds are costly: sample two
      const double cl = kLoadCap * (1.0 + 1e-9 * (100.0 + t.librarySamples));
      const auto t0 = Clock::now();
      (void)topology::amplifierLibrary(proc(), cl, topology::TopologySpace::Generated);
      t.libraryBuild += since(t0);
      t.librarySamples += 1;
    }
  }

 private:
  std::pair<std::vector<Outcome>, double> runBatch(const std::vector<Design>& designs,
                                                   std::size_t begin, std::size_t end,
                                                   std::size_t width) {
    core::ScopedThreadPool pool(width);
    auto ctx = freshContext(width);
    core::ContextScope scope(*ctx);
    std::vector<sizing::SpecSet> specs;
    for (std::size_t i = begin; i < end; ++i) specs.push_back(designs[i].specs);
    const auto opts = flowOptions(topology::TopologySpace::Generated, designs[begin].seed);
    const auto t0 = Clock::now();
    auto results = core::synthesizeBatch(specs, proc(), opts);
    const double wall = since(t0);
    std::vector<Outcome> out(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      out[i].flowSeed = core::batchItemOptions(opts, i).seed;
      out[i].flow = std::move(results[i]);
      out[i].digest = flowDigest(out[i].flow);
    }
    return {std::move(out), wall};
  }
};

// ---------------------------------------------------------------------------
// Command line and report

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = (v == "1");
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 && argc % 2 == 1;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "amp_flow") return std::make_unique<AmpFlow>();
  if (name == "robust_corners") return std::make_unique<RobustCorners>();
  if (name == "gen_batch") return std::make_unique<GenBatch>();
  return nullptr;
}

/// Accumulates the final metrics line and the detail object.
class Report {
 public:
  void metric(const std::string& name, Opt value, const std::string& unit) {
    // The result line carries numbers only; an undefined value reads 0
    // there and null in the detail line.
    metrics_.push_back("\"" + name + "\": {\"value\": " + jsonNumber(value ? value : 0.0) +
                       ", \"unit\": \"" + unit + "\"}");
    detail(name, value);
  }
  void detail(const std::string& name, Opt value) {
    detail_.push_back("\"" + name + "\": " + jsonNumber(value));
  }
  void detailRaw(const std::string& name, const std::string& json) {
    detail_.push_back("\"" + name + "\": " + json);
  }
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::cout << "{\"detail\": {" << join(detail_) << "}}\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {" << join(metrics_) << "}}" << std::endl;
  }

 private:
  static std::string join(const std::vector<std::string>& v) {
    std::string s;
    for (const auto& x : v) s += (s.empty() ? "" : ", ") + x;
    return s;
  }
  std::vector<std::string> metrics_, detail_;
};

std::string describe(const Design& d) {
  std::ostringstream os;
  os << "(seed " << d.seed;
  for (const auto& s : d.specs.specs())
    if (!s.isObjective()) os << ", " << s.describe();
  os << ")";
  return os.str();
}

std::string jsonString(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return q + "\"";
}

int runBenchmark(const Args& args) {
  auto wl = makeWorkload(args.workload);
  if (!wl) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Report report;
  report.detailRaw("workload", jsonString(wl->name()));
  report.detailRaw("seed", std::to_string(args.seed));
  report.detailRaw("pool_workers", std::to_string(wl->width()));
  report.detailRaw("executing_threads", std::to_string(wl->threads()));
  report.detailRaw("compiler", jsonString(PERFBENCH_COMPILER));
  report.detailRaw("build_type", jsonString(PERFBENCH_BUILD_TYPE));
  report.detailRaw("amsyn_trace", AMSYN_TRACE_ENABLED ? "true" : "false");
  report.detail("host.spin_s_before", spinSeconds());
  report.detail("host.effective_cores", scalingProbe(4));

  // Inputs: the first n designs of the workload's fixed pool, n a whole
  // number of chunks sized from --seconds, in a chunk order drawn from
  // --seed.  Work per design varies ~10x with its flow seed, so a run that
  // drew fresh designs would measure different work on every seed.
  const std::size_t chunk = wl->chunk();
  const std::size_t chunks = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(args.seconds * wl->nominalRate() /
                                               static_cast<double>(kRounds * chunk))));
  const std::size_t n = chunks * chunk;
  perfbench::SplitMix poolRng(kPoolSeed);
  std::vector<Design> pool;
  for (std::size_t i = 0; i < n; ++i) pool.push_back(wl->draw(poolRng));
  std::vector<Design> designs;
  for (const std::size_t c : perfbench::seededPermutation(chunks, args.seed))
    for (std::size_t i = c * chunk; i < (c + 1) * chunk; ++i) designs.push_back(pool[i]);

  // Untraced run: kRounds rounds over the same designs, one setup before
  // each.  Every setup and every chunk starts from a trimmed heap: the
  // previous design freed its whole cache, and glibc would otherwise merge
  // those chunks at the next large allocation, billing whoever makes it.
  // The reference kernel runs once per design, right after its chunk, and
  // each round's times are scaled by its median (see referenceSeconds).
  std::vector<std::vector<Outcome>> rounds(kRounds, std::vector<Outcome>(n));
  std::vector<double> setups, roundWalls, chunkWalls, chunkReference, roundReference, scale,
      setupScale;
  double rssMb = 0.0;
  const Counters before = readCounters();
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t k = 0; k < wl->setupsPerRound(); ++k) {
      malloc_trim(0);
      setups.push_back(wl->setupOnce(r));
    }
    // Setup runs on one thread whatever the workload's width.
    std::vector<double> setupReference;
    for (std::size_t k = 0; k < 5; ++k) setupReference.push_back(referenceSeconds(1));
    setupScale.push_back(*perfbench::referenceScale(setupReference, kReferenceSeconds));
    double wall = 0.0;
    std::vector<double> reference;
    for (std::size_t c = 0; c < chunks; ++c) {
      malloc_trim(0);
      chunkWalls.push_back(wl->run(designs, c * chunk, (c + 1) * chunk, rounds[r]));
      wall += chunkWalls.back();
      std::vector<double> here;
      for (std::size_t k = 0; k < chunk; ++k) here.push_back(referenceSeconds(wl->threads()));
      chunkReference.push_back(*perfbench::median(here));
      reference.insert(reference.end(), here.begin(), here.end());
    }
    roundWalls.push_back(wall);
    roundReference.push_back(*perfbench::median(reference));
    scale.push_back(*perfbench::referenceScale(reference, kReferenceSeconds));
    // Peak memory of what a user runs: one setup and one pass over the
    // designs.  Every later setup memoizes one more cold generated library
    // on gen_batch, so a later peak would depend on the batch order.
    if (r == 0) rssMb = peakRssMb();
    if (r > 0) {  // the checks read round 0's designs; later rounds keep digests
      for (auto& o : rounds[r]) {
        o.flow = {};
        o.robust = {};
      }
    }
  }
  const Counters work = perfbench::delta(readCounters(), before);
  report.detail("host.spin_s_after", spinSeconds());

  // Work repeats: every round must deliver identical results and, on
  // serial workloads, record identical work counters per design.
  std::vector<Outcome>& out = rounds[0];
  std::vector<std::string> mismatches = wl->widthCheck(designs, out);
  for (std::size_t r = 1; r < kRounds; ++r)
    for (std::size_t i = 0; i < n; ++i) {
      const std::string where = "round " + std::to_string(r) + " design " + std::to_string(i);
      if (rounds[r][i].digest != out[i].digest) mismatches.push_back(where + " digest");
      if (wl->serial())
        for (const auto& c :
             perfbench::counterMismatches(workOnly(out[i].work), workOnly(rounds[r][i].work)))
          mismatches.push_back(where + " " + c);
    }

  // Output check on round 0 (the other rounds are identical to it).
  std::size_t passed = 0, disagreements = 0;
  std::vector<double> designMedians, rawMedians, samples, powers, areas;
  double attempts = 0.0;
  std::string failures;
  for (std::size_t i = 0; i < n; ++i) {
    serially([&] { wl->check(designs[i], out[i]); });
    std::vector<double> times, raw;
    for (std::size_t r = 0; r < kRounds; ++r) {
      raw.push_back(rounds[r][i].seconds);
      times.push_back(raw.back() * scale[r]);
    }
    samples.insert(samples.end(), times.begin(), times.end());
    designMedians.push_back(*perfbench::median(times));
    rawMedians.push_back(*perfbench::median(raw));
    attempts += static_cast<double>(out[i].attempts);
    // A success the program claims that the check refutes is a wrong output.
    disagreements += out[i].claimed && !out[i].passed ? 1 : 0;
    const std::string why = !out[i].error.empty() ? "threw: " + out[i].error
                            : !out[i].passed     ? "failed: " + out[i].flow.failureReason
                                                 : "";
    if (!why.empty())
      failures += (failures.empty() ? "" : ", ") +
                  jsonString("design " + std::to_string(i) + " " + describe(designs[i]) + " " + why);
    if (!out[i].passed) continue;
    ++passed;
    powers.push_back(out[i].powerW * 1e3);
    areas.push_back(out[i].areaLambda2);
  }
  const bool correct = mismatches.empty() && disagreements == 0;

  const auto list = [](const std::vector<double>& v) {
    std::string s;
    for (const double x : v) s += (s.empty() ? "" : ", ") + jsonNumber(x);
    return "[" + s + "]";
  };
  std::string mm;
  for (const auto& m : mismatches) mm += (mm.empty() ? "" : ", ") + jsonString(m);
  report.detailRaw("repeat_mismatches", "[" + mm + "]");
  report.detailRaw("check_disagreements", std::to_string(disagreements));
  report.detailRaw("failures", "[" + failures + "]");
  report.detailRaw("designs", std::to_string(n));
  report.detailRaw("rounds", std::to_string(kRounds));
  // Scaled to the reference host: every reported time and rate.  The raw
  // times, the reference medians and the factors stay in the detail line.
  std::vector<double> scaledSetups, scaledWalls, roundRates, rawRates;
  for (std::size_t k = 0; k < setups.size(); ++k)
    scaledSetups.push_back(setups[k] * setupScale[k / wl->setupsPerRound()]);
  for (std::size_t r = 0; r < kRounds; ++r) {
    scaledWalls.push_back(roundWalls[r] * scale[r]);
    roundRates.push_back(static_cast<double>(n) / scaledWalls[r]);
    rawRates.push_back(static_cast<double>(n) / roundWalls[r]);
  }
  report.detail("reference_nominal_s", kReferenceSeconds);
  report.detailRaw("host.reference_s", list(roundReference));
  report.detailRaw("host.reference_chunk_s", list(chunkReference));
  report.detailRaw("reference_scale", list(scale));
  report.detailRaw("setup_reference_scale", list(setupScale));
  report.detail("raw.setup_s", perfbench::median(setups));
  report.detail("raw.designs_per_s", perfbench::median(rawRates));
  report.detail("raw.design_s_p50", perfbench::harrellDavisMedian(rawMedians));
  report.detailRaw("raw.setup_s_samples", list(setups));
  report.detailRaw("raw.round_wall_s", list(roundWalls));
  report.detailRaw("raw.chunk_wall_s", list(chunkWalls));
  report.detailRaw("design_s_medians", list(designMedians));
  report.detailRaw("design_s_sample_count", std::to_string(samples.size()));
  if (const auto tail = perfbench::reportableTail(samples.size())) {
    report.detail("design_s_tail_quantile", *tail);
    report.detail("design_s_tail", perfbench::percentile(samples, *tail));
  }

  const double runs = static_cast<double>(n * kRounds);
  const auto perDesign = [&](const std::string& c) {
    return perfbench::rate(static_cast<double>(work.at(c)), runs);
  };
  const auto ratio = [&](const std::string& a, const std::string& b) {
    return perfbench::rate(static_cast<double>(work.at(a)), static_cast<double>(work.at(b)));
  };

  if (!args.trace) {
    report.metric("setup_s", perfbench::median(scaledSetups), "s");
    report.metric("designs_per_s", perfbench::median(roundRates), "1/s");
    report.metric("design_s_p50", perfbench::harrellDavisMedian(designMedians), "s");
    report.metric("success_rate",
                  perfbench::rate(static_cast<double>(passed), static_cast<double>(n)), "ratio");
    report.metric("peak_rss_mb", rssMb, "MB");
    report.metric("power_mw_mean", perfbench::mean(powers), "mW");
    report.metric("area_lambda2_mean", perfbench::mean(areas), "lambda2");
  } else {
    // Traced pass: a separate replay of each delivered design's layer
    // calls, capped at the run's own length (at least three designs).
    // Layer times are raw, so coverage compares them with raw design times.
    LayerTimes t;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n && (t.designs < 3 || since(t0) < args.seconds); ++i) {
      if (!out[i].claimed) continue;
      serially([&] { wl->trace(designs[i], out[i], t); });
      t.designSeconds += rawMedians[i];
      ++t.designs;
    }
    const double td = static_cast<double>(t.designs);
    report.detailRaw("traced_designs", std::to_string(t.designs));
    const auto perTraced = [&](double s) { return perfbench::rate(s, td); };
    report.metric("topology.library_s",
                  perfbench::rate(t.libraryBuild, t.librarySamples), "s");
    report.metric("topology.select_s", perTraced(t.select), "s");
    report.metric("sizing.cost_evals", perDesign("sizing.cost_evals"), "count");
    report.metric("sizing.us_per_cost_eval",
                  perfbench::rate((t.select + t.sizing) * 1e6, static_cast<double>(t.costEvals)),
                  "us");
    report.metric("anneal.accept_ratio",
                  ratio("anneal.moves_accepted", "anneal.moves_attempted"), "ratio");
    report.metric("layout.geometry_s", perTraced(t.geometry), "s");
    report.metric("route.expansions", perDesign("route.expansions"), "count");
    report.metric("route.us_per_expansion",
                  perfbench::rate(t.geometry * 1e6, static_cast<double>(t.expansions)), "us");
    report.metric("place.accept_ratio",
                  ratio("place.moves_accepted", "place.moves_attempted"), "ratio");
    report.metric("extract.s", perTraced(t.extract), "s");
    report.metric("sim.measure_s", perTraced(t.measure), "s");
    for (const char* c : {"sim.dc_solves", "sim.newton_iterations", "sim.lu_factorizations",
                          "sim.lu_reuses", "sim.ac_points"})
      report.metric(c, perDesign(c), "count");
    report.metric("manufacture.worst_corner_s", perTraced(t.worstCorner), "s");
    report.metric("corners.vertex_evals", perDesign("corners.vertex_evals"), "count");
    double nominal = 0.0, robust = 0.0;
    for (const auto& o : out) {
      nominal += o.robust.nominalEvaluations;
      robust += o.robust.robustEvaluations;
    }
    report.metric("manufacture.eval_ratio", perfbench::rate(robust, nominal), "ratio");
    const double hits = static_cast<double>(work.at("core.cache.hits"));
    report.metric("cache.hit_rate",
                  perfbench::rate(hits, hits + static_cast<double>(work.at("core.cache.misses"))),
                  "ratio");
    report.metric("cache.bypasses", perDesign("core.cache.bypasses"), "count");
    report.metric("flow.attempts_per_design",
                  perfbench::rate(attempts, static_cast<double>(n)), "count");
    double busy = 0.0, wall = 0.0;
    for (const double x : samples) busy += x;
    for (const double w : scaledWalls) wall += w;
    report.metric("batch.parallel_efficiency",
                  perfbench::rate(busy, wall * static_cast<double>(wl->threads())), "ratio");
    report.metric("trace.coverage", perfbench::rate(t.layered(), t.designSeconds), "ratio");
  }
  const std::size_t failed = n - passed;
  report.print(correct, n * kRounds, failed * kRounds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: flow_bench --workload amp_flow|robust_corners|gen_batch"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  try {
    return runBenchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "flow_bench: " << e.what() << "\n";
    return 1;
  }
}
