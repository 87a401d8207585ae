// Learned surrogate screening over evaluation traffic (cf. the ML-enabled
// AMS synthesis survey, arXiv:2112.07824).  An incremental ridge-regression
// model is fitted online from the (candidate -> Performance) pairs that
// sizing::safeEvaluate already produces by the thousand, and it has exactly
// one consumer: the vertex screen in manufacture::worstCaseCorner.  A hunt
// vertex whose predicted margin is confidently (calibrated 6-sigma band plus
// a fixed guard) above the best vertex's upper bound cannot be the worst
// corner, so it is skipped.  The screen is argmin-safe by construction — the
// hunt's result never changes — and audited: every skipped vertex is logged
// so tests can re-evaluate it offline and count false prunes.  It is off by
// default (ContextConfig::surrogateScreening).
//
// Like the evaluation cache this sits below the evaluation libraries:
// sizing trains it and manufacture consults it, so the target
// (amsyn_surrogate) depends only on amsyn_metrics.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/evalcache.hpp"

namespace amsyn::core::surrogate {

/// A featurized candidate: the class key identifies one learnable family
/// (model identity minus anything encoded in the feature vector), and the
/// feature vector is [1 (bias)] ++ normalized design coordinates ++ model
/// context (e.g. corner-process parameters).  Built by
/// sizing::surrogateCandidate from a PerformanceModel's attestation.
struct Candidate {
  cache::Digest128 classKey;
  std::vector<double> features;
};

/// One per-head prediction.  `sigma` is the calibrated predictive standard
/// deviation s * sqrt(1 + phi' P phi) with s^2 estimated prequentially
/// (predict-before-train residuals), so it reflects honest out-of-sample
/// error, not training fit.  `calibrated` turns true once enough residuals
/// accumulated for sigma to be trustworthy; screening must require it.
struct Prediction {
  double mean = 0.0;
  double sigma = 0.0;
  bool calibrated = false;
};

/// Incremental ridge regression with a shared design-matrix inverse and one
/// output head per performance name.  Maintains P = (lambda I + X'X)^-1 via
/// Sherman–Morrison rank-1 updates, so training is O(d^2) per observed pair
/// and prediction is O(d^2) (lazy weight refresh) or O(d) when weights are
/// clean.  Deterministic: the same observation sequence produces bit-equal
/// predictions.  NOT thread-safe — Store serializes access per class.
class RidgeModel {
 public:
  static constexpr double kDefaultLambda = 1e-3;
  /// Prequential residuals required before sigma counts as calibrated.
  static constexpr std::size_t kMinCalibration = 32;

  explicit RidgeModel(std::size_t dim, double lambda = kDefaultLambda);

  /// Fold in one observation.  `phi` must have length dim; `heads` maps
  /// performance name -> observed value.  The head set is pinned by the
  /// first observation; later observations must carry the same names
  /// (returns false and ignores the pair otherwise), keeping every head's
  /// weights an exact ridge solve over the same design matrix.
  bool observe(const std::vector<double>& phi, const Performance& heads);

  /// Predict one head at phi.  nullopt until the model has seen at least
  /// dim observations (underdetermined fits order nothing useful) or when
  /// the head is unknown.
  std::optional<Prediction> predict(const std::vector<double>& phi,
                                    const std::string& head);

  std::size_t dimension() const { return dim_; }
  std::size_t observations() const { return count_; }

  /// Current ridge weights for one head (empty if unknown) — exposed for
  /// the property tests that compare against a batch normal-equation solve.
  std::vector<double> weights(const std::string& head);

 private:
  struct Head {
    std::vector<double> b;  ///< accumulated X'y
    std::vector<double> w;  ///< lazy P b
    bool dirty = true;
    std::uint64_t residuals = 0;
    double residualSumSq = 0.0;
  };

  void refresh(Head& h);

  std::size_t dim_;
  double lambda_;
  std::size_t count_ = 0;
  std::vector<double> p_;  ///< row-major dim x dim, symmetric
  std::map<std::string, Head> heads_;
};

/// Process-wide surrogate store: one RidgeModel per candidate class, metrics,
/// and the pruning audit log.  All methods are thread-safe.  The store holds
/// no mode: consumers read ContextConfig::surrogateScreening of the context
/// they run under, so tenants sharing the store never see each other's mode.
class Store {
 public:
  /// The process-wide store (leaked on purpose).  Production code resolves
  /// it through core::ExecutionContext.
  static Store& instance();

  /// A private store for context isolation: own models, prune log, and
  /// class gauge, and no registry externals ("core.surrogate.classes" keeps
  /// naming the shared store).
  static std::unique_ptr<Store> createIsolated();

  ~Store();

  /// Training tap (called by sizing::safeEvaluate on fresh, feasible
  /// evaluations).  Creates the class on first sight; non-finite features
  /// or values, dimension drift, and head-set drift are declined.
  void observe(const Candidate& c, const Performance& heads);

  /// One head's prediction for a candidate.  Unknown class, unknown head,
  /// or an immature model yield nullopt.
  std::optional<Prediction> predict(const Candidate& c, const std::string& head);

  /// Audit record for one skipped hunt vertex: enough to re-run the real
  /// evaluator offline and check the verdict (tests/surrogate_test.cpp
  /// counts false prunes against a budget of zero).
  struct PruneRecord {
    cache::Digest128 classKey;
    std::vector<double> x;        ///< raw design point (model space)
    std::string spec;             ///< performance the hunt was for
    double predictedMargin = 0.0; ///< normalized margin lower bound that triggered
    double sigma = 0.0;           ///< normalized predictive sigma
    std::vector<double> corner;   ///< the skipped vertex's corner coordinates
  };
  void recordPrune(PruneRecord r);
  std::vector<PruneRecord> pruneLog() const;

  struct SurrogateStats {
    std::uint64_t observations = 0;
    std::uint64_t predictions = 0;
    std::uint64_t declined = 0;
    std::uint64_t pruned = 0;
    std::uint64_t classes = 0;
  };
  SurrogateStats stats() const;

  /// Drop all learned state and the prune log.  Differential
  /// tests call this between arms so each run trains from scratch.
  void clear();

 private:
  /// `shared` selects the registry external (the process instance) vs. no
  /// externals (isolated instances).
  explicit Store(bool shared);
  struct Impl;
  Impl& impl() const { return *impl_; }
  std::unique_ptr<Impl> impl_;
};

}  // namespace amsyn::core::surrogate
