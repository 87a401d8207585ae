#include "core/surrogate.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/metrics.hpp"

namespace amsyn::core::surrogate {

namespace {

struct DigestHash {
  std::size_t operator()(const cache::Digest128& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ULL));
  }
};

bool allFinite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

}  // namespace

RidgeModel::RidgeModel(std::size_t dim, double lambda)
    : dim_(dim), lambda_(lambda > 0.0 ? lambda : kDefaultLambda),
      p_(dim * dim, 0.0) {
  // No data yet: P = (lambda I)^-1.
  for (std::size_t i = 0; i < dim_; ++i) p_[i * dim_ + i] = 1.0 / lambda_;
}

void RidgeModel::refresh(Head& h) {
  if (!h.dirty) return;
  h.w.assign(dim_, 0.0);
  for (std::size_t i = 0; i < dim_; ++i) {
    double acc = 0.0;
    const double* row = &p_[i * dim_];
    for (std::size_t j = 0; j < dim_; ++j) acc += row[j] * h.b[j];
    h.w[i] = acc;
  }
  h.dirty = false;
}

bool RidgeModel::observe(const std::vector<double>& phi, const Performance& heads) {
  if (phi.size() != dim_ || heads.empty() || !allFinite(phi)) return false;
  for (const auto& [name, y] : heads)
    if (!std::isfinite(y)) return false;
  if (heads_.empty()) {
    for (const auto& [name, y] : heads) {
      (void)y;
      Head h;
      h.b.assign(dim_, 0.0);
      heads_.emplace(name, std::move(h));
    }
  } else {
    // Head-set pinning: every observation must carry exactly the pinned
    // names, so each head's weights stay an exact ridge solve over the full
    // design matrix (a head observed on a subset would silently regress
    // missing targets toward zero).
    if (heads.size() != heads_.size()) return false;
    auto it = heads_.begin();
    for (const auto& [name, y] : heads) {
      (void)y;
      if (it == heads_.end() || it->first != name) return false;
      ++it;
    }
  }

  // Prequential calibration: score the incoming pair with the *current*
  // weights before folding it in.  Only once the fit is determined (count
  // >= dim) — earlier residuals measure the prior, not the model.
  if (count_ >= dim_) {
    for (auto& [name, h] : heads_) {
      refresh(h);
      double pred = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) pred += h.w[j] * phi[j];
      const double r = heads.at(name) - pred;
      h.residualSumSq += r * r;
      ++h.residuals;
    }
  }

  // Sherman–Morrison: P -= (P phi)(P phi)' / (1 + phi' P phi).  Written to
  // preserve symmetry exactly (each off-diagonal pair assigned once).
  std::vector<double> k(dim_, 0.0);
  double denom = 1.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    double acc = 0.0;
    const double* row = &p_[i * dim_];
    for (std::size_t j = 0; j < dim_; ++j) acc += row[j] * phi[j];
    k[i] = acc;
    denom += acc * phi[i];
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i; j < dim_; ++j) {
      const double v = p_[i * dim_ + j] - k[i] * k[j] / denom;
      p_[i * dim_ + j] = v;
      p_[j * dim_ + i] = v;
    }
  }

  for (auto& [name, h] : heads_) {
    const double y = heads.at(name);
    for (std::size_t j = 0; j < dim_; ++j) h.b[j] += phi[j] * y;
    h.dirty = true;
  }
  ++count_;
  return true;
}

std::optional<Prediction> RidgeModel::predict(const std::vector<double>& phi,
                                              const std::string& head) {
  if (phi.size() != dim_ || count_ < dim_ || !allFinite(phi)) return std::nullopt;
  auto it = heads_.find(head);
  if (it == heads_.end()) return std::nullopt;
  Head& h = it->second;
  refresh(h);
  double mean = 0.0;
  double q = 0.0;  // phi' P phi
  for (std::size_t i = 0; i < dim_; ++i) {
    mean += h.w[i] * phi[i];
    double acc = 0.0;
    const double* row = &p_[i * dim_];
    for (std::size_t j = 0; j < dim_; ++j) acc += row[j] * phi[j];
    q += acc * phi[i];
  }
  Prediction out;
  out.mean = mean;
  const double s2 =
      h.residuals > 0 ? h.residualSumSq / static_cast<double>(h.residuals) : 0.0;
  out.sigma = std::sqrt(std::max(0.0, s2 * (1.0 + std::max(0.0, q))));
  out.calibrated = h.residuals >= kMinCalibration;
  if (!std::isfinite(out.mean) || !std::isfinite(out.sigma)) return std::nullopt;
  return out;
}

std::vector<double> RidgeModel::weights(const std::string& head) {
  auto it = heads_.find(head);
  if (it == heads_.end()) return {};
  refresh(it->second);
  return it->second.w;
}

struct Store::Impl {
  struct ClassEntry {
    std::mutex mutex;
    std::unique_ptr<RidgeModel> model;
  };

  mutable std::mutex classesMutex;
  std::unordered_map<cache::Digest128, std::unique_ptr<ClassEntry>, DigestHash>
      classes;
  std::atomic<std::uint64_t> classCount{0};

  static constexpr std::size_t kMaxPruneLog = 4096;
  mutable std::mutex pruneMutex;
  std::vector<PruneRecord> prunes;

  metrics::CounterId cObservations, cPredictions, cDeclined, cPruned;

  explicit Impl(bool shared) {
    auto& reg = metrics::registry();
    // Registered eagerly (not at first observation) so run-report counter
    // key-sets are identical with screening on and off — report_schema_test
    // compares schemas across both.
    cObservations = reg.counter("core.surrogate.observations");
    cPredictions = reg.counter("core.surrogate.predictions");
    cDeclined = reg.counter("core.surrogate.declined");
    cPruned = reg.counter("core.surrogate.pruned");
    if (shared) {
      // Only the shared store backs the process-wide class gauge:
      // registerExternal replaces readers by name, so an isolated store
      // registering here would hijack the report field.
      reg.registerExternal("core.surrogate.classes", [this] {
        return classCount.load(std::memory_order_relaxed);
      });
    }
  }

  ClassEntry& entryFor(const cache::Digest128& key, bool& created) {
    std::lock_guard<std::mutex> lock(classesMutex);
    auto it = classes.find(key);
    if (it == classes.end()) {
      it = classes.emplace(key, std::make_unique<ClassEntry>()).first;
      classCount.fetch_add(1, std::memory_order_relaxed);
      created = true;
    }
    return *it->second;
  }

  ClassEntry* findEntry(const cache::Digest128& key) {
    std::lock_guard<std::mutex> lock(classesMutex);
    auto it = classes.find(key);
    return it == classes.end() ? nullptr : it->second.get();
  }
};

Store::Store(bool shared) : impl_(std::make_unique<Impl>(shared)) {}

Store::~Store() = default;

Store& Store::instance() {
  static Store* leaked = new Store(/*shared=*/true);
  return *leaked;
}

std::unique_ptr<Store> Store::createIsolated() {
  return std::unique_ptr<Store>(new Store(/*shared=*/false));
}

void Store::observe(const Candidate& c, const Performance& heads) {
  Impl& im = impl();
  if (c.features.empty() || heads.empty()) {
    metrics::add(im.cDeclined);
    return;
  }
  bool created = false;
  Impl::ClassEntry& entry = im.entryFor(c.classKey, created);
  std::lock_guard<std::mutex> lock(entry.mutex);
  if (!entry.model)
    entry.model = std::make_unique<RidgeModel>(c.features.size());
  if (entry.model->dimension() != c.features.size() ||
      !entry.model->observe(c.features, heads)) {
    metrics::add(im.cDeclined);
    return;
  }
  metrics::add(im.cObservations);
}

std::optional<Prediction> Store::predict(const Candidate& c,
                                         const std::string& head) {
  Impl& im = impl();
  Impl::ClassEntry* entry = im.findEntry(c.classKey);
  if (!entry) return std::nullopt;
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (!entry->model) return std::nullopt;
  auto pred = entry->model->predict(c.features, head);
  if (pred) metrics::add(im.cPredictions);
  return pred;
}

void Store::recordPrune(PruneRecord r) {
  Impl& im = impl();
  metrics::add(im.cPruned);
  std::lock_guard<std::mutex> lock(im.pruneMutex);
  // Bounded: the counter keeps the true total; the log keeps the first N
  // for offline audit (tests re-evaluate every logged record).
  if (im.prunes.size() < Impl::kMaxPruneLog) im.prunes.push_back(std::move(r));
}

std::vector<Store::PruneRecord> Store::pruneLog() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.pruneMutex);
  return im.prunes;
}

Store::SurrogateStats Store::stats() const {
  Impl& im = impl();
  auto& reg = metrics::registry();
  SurrogateStats s;
  s.observations = reg.total(im.cObservations);
  s.predictions = reg.total(im.cPredictions);
  s.declined = reg.total(im.cDeclined);
  s.pruned = reg.total(im.cPruned);
  s.classes = im.classCount.load(std::memory_order_relaxed);
  return s;
}

void Store::clear() {
  Impl& im = impl();
  {
    std::lock_guard<std::mutex> lock(im.classesMutex);
    im.classes.clear();
    im.classCount.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(im.pruneMutex);
  im.prunes.clear();
}

}  // namespace amsyn::core::surrogate
