// The four itemset sketching problems (Definitions 1-4) as interfaces,
// and the registry that makes every algorithm a first-class citizen.
//
// A sketch is a pair (S, Q): a randomized sketching algorithm S producing
// a bit-string summary, and a deterministic query procedure Q. We model S
// as SketchAlgorithm::Build (which serializes through util::BitWriter so
// Definition 5's |S| is an exact bit count) and Q as the Load +
// IsFrequent / EstimateFrequency pair. The "for all" vs "for each"
// distinction is a property of the *guarantee*, carried in SketchParams,
// because algorithms like SUBSAMPLE pick their size from it (Lemma 9).
//
// Public API layering (outermost first):
//   ifsketch::Engine (engine.h)     -- one object that builds, saves,
//                                      reopens and queries any sketch.
//   core::SketchRegistry (registry.h) -- algorithm name -> factory; lets a
//                                      serialized summary be resolved back
//                                      to its (S, Q) pair by name alone.
//   core::SketchAlgorithm (below)   -- the per-algorithm (S, Q) contract.
//
// Most callers should go through Engine:
//   auto eng = ifsketch::Engine::Build(db, "SUBSAMPLE", params, rng);
//   eng.Save("out.sk");
//   auto again = ifsketch::Engine::Open("out.sk");  // algorithm resolved
//   double f = again->estimate(itemset);            // from the file itself
//
// Query-side views answer one itemset at a time (EstimateFrequency /
// IsFrequent) or in bulk (EstimateMany / AreFrequent). The batched entry
// points are semantically identical to a loop of scalar calls -- answers
// are bit-for-bit the same -- but concrete estimators override them to
// amortize shared work (e.g. transposing a sample into a column store
// once at load time and answering each query as a popcount of ANDed
// columns).
//
// Batched contract: the virtual batched methods take one flat
// core::QueryBatch (query_batch.h) -- the form the server decodes a
// request into -- and must answer query i of the batch exactly as the
// scalar method answers the Itemset holding the same attribute ids. The
// std::vector<Itemset> overloads are non-virtual adapters that pack the
// vector into one batch and run the flat path, so both forms return the
// same bits. Overrides read each query's ids straight from the batch
// instead of building an Itemset per query; the default flat loops reuse
// one scratch Itemset per chunk for the scalar calls.
// Overriding the flat form hides the adapter in the derived class, so
// overriders re-export it (`using FrequencyEstimator::EstimateMany;`).
//
// Threading contract: loaded views must be immutable -- every query
// method is const and safe to call concurrently, with no lazily-built
// mutable caches. The default EstimateMany/AreFrequent (and the
// column-store overrides) fan batches out across
// util::ThreadPool::Default(); each query writes only its own answer
// slot, so batched answers stay bit-identical to the scalar loop at any
// thread count. Implementations of EstimateFrequency/IsFrequent
// therefore must be safe to call from multiple threads at once.
#ifndef IFSKETCH_CORE_SKETCH_H_
#define IFSKETCH_CORE_SKETCH_H_

#include <memory>
#include <string>
#include <vector>

#include "core/column_store.h"
#include "core/database.h"
#include "core/itemset.h"
#include "core/query_batch.h"
#include "util/bitvector.h"
#include "util/random.h"

namespace ifsketch::core {

/// Which quantifier the accuracy guarantee uses (§1.3).
enum class Scope {
  kForAll,   ///< With prob. 1-delta, correct for ALL k-itemsets at once.
  kForEach,  ///< For each single k-itemset, correct with prob. 1-delta.
};

/// Whether the query returns a threshold bit or an approximate frequency.
enum class Answer {
  kIndicator,  ///< Definition 1/3: 1 if f_T > eps, 0 if f_T < eps/2.
  kEstimator,  ///< Definition 2/4: |answer - f_T| <= eps.
};

const char* ToString(Scope scope);
const char* ToString(Answer answer);

/// The (k, eps, delta) triple plus the guarantee flavor.
struct SketchParams {
  std::size_t k = 1;      ///< Query itemset cardinality.
  double eps = 0.1;       ///< Precision / threshold parameter.
  double delta = 0.05;    ///< Failure probability.
  Scope scope = Scope::kForAll;
  Answer answer = Answer::kEstimator;
};

/// Whether the parameters are usable: k >= 1, eps in (0, 1], delta in
/// (0, 1), all finite. Shared by the writers and readers of the sketch
/// file format so nothing serializable is unloadable and vice versa.
bool ValidSketchParams(const SketchParams& params);

/// Query-side view of an estimator summary (Definitions 2 and 4).
class FrequencyEstimator {
 public:
  virtual ~FrequencyEstimator() = default;

  /// Q(S, T): an approximation of f_T(D) in [0, 1].
  virtual double EstimateFrequency(const Itemset& t) const = 0;

  /// Batched Q: answers every query of `batch`, writing answers[i] for
  /// query i. Must return exactly the values EstimateFrequency would,
  /// query by query; overrides only share work, never change answers.
  /// The default is the scalar loop over one scratch Itemset per chunk.
  virtual void EstimateMany(const QueryBatch& batch,
                            std::vector<double>* answers) const;

  /// Adapter: packs `ts` into one batch and answers it as above.
  void EstimateMany(const std::vector<Itemset>& ts,
                    std::vector<double>* answers) const {
    EstimateMany(QueryBatch::FromItemsets(ts), answers);
  }
};

/// Query-side view of an indicator summary (Definitions 1 and 3).
class FrequencyIndicator {
 public:
  virtual ~FrequencyIndicator() = default;

  /// Q(S, T): true asserts f_T > eps/2; false asserts f_T <= eps.
  virtual bool IsFrequent(const Itemset& t) const = 0;

  /// Batched Q: answers[i] = IsFrequent(query i), with the same
  /// answers-identical contract as FrequencyEstimator::EstimateMany.
  virtual void AreFrequent(const QueryBatch& batch,
                           std::vector<bool>* answers) const;

  /// Adapter: packs `ts` into one batch and answers it as above.
  void AreFrequent(const std::vector<Itemset>& ts,
                   std::vector<bool>* answers) const {
    AreFrequent(QueryBatch::FromItemsets(ts), answers);
  }
};

/// Adapts an estimator into an indicator by thresholding at 3eps/4
/// (an estimator with error eps/4 yields a valid indicator at eps).
class ThresholdIndicator : public FrequencyIndicator {
 public:
  ThresholdIndicator(std::unique_ptr<FrequencyEstimator> estimator,
                     double threshold)
      : estimator_(std::move(estimator)), threshold_(threshold) {}

  bool IsFrequent(const Itemset& t) const override {
    return estimator_->EstimateFrequency(t) >= threshold_;
  }

  using FrequencyIndicator::AreFrequent;
  /// Forwards to the wrapped estimator's batched path, then thresholds.
  void AreFrequent(const QueryBatch& batch,
                   std::vector<bool>* answers) const override;

 private:
  std::unique_ptr<FrequencyEstimator> estimator_;
  double threshold_;
};

/// A sketching algorithm: the pair (S, Q) of §1.3.
///
/// Build() is the randomized S; LoadEstimator()/LoadIndicator() are the
/// deterministic Q, reconstructing a queryable view purely from the
/// summary bits plus the public parameters (params, d, n).
class SketchAlgorithm {
 public:
  virtual ~SketchAlgorithm() = default;

  /// Human-readable algorithm name ("RELEASE-DB", "SUBSAMPLE", ...).
  /// Also the registry key: SketchRegistry::Create(name()) must rebuild
  /// an equivalent algorithm for every registered implementation.
  virtual std::string name() const = 0;

  /// S(D, k, eps, delta): serializes a summary of `db`.
  virtual util::BitVector Build(const Database& db, const SketchParams& params,
                                util::Rng& rng) const = 0;

  /// Deserializes an estimator view. `d`/`n` are the public database shape
  /// (not secret; Definition 5 fixes them when defining |S|).
  virtual std::unique_ptr<FrequencyEstimator> LoadEstimator(
      const util::BitVector& summary, const SketchParams& params,
      std::size_t d, std::size_t n) const = 0;

  /// Deserializes an indicator view (by default thresholds the estimator).
  virtual std::unique_ptr<FrequencyIndicator> LoadIndicator(
      const util::BitVector& summary, const SketchParams& params,
      std::size_t d, std::size_t n) const;

  /// Predicted summary size in bits for a database of shape (n, d),
  /// i.e. the algorithm's side of the Theorem 12 envelope. Implementations
  /// must match what Build() actually emits.
  virtual std::size_t PredictedSizeBits(std::size_t n, std::size_t d,
                                        const SketchParams& params) const = 0;

  /// True when Build()'s payload is rows of width d and nothing else --
  /// summary.size()/d rows of d bits -- so that transposing the summary
  /// at width d yields exactly the columns the loaders query: one sample
  /// answered by its sample frequency (RELEASE-DB, SUBSAMPLE,
  /// SUBSAMPLE-WOR, STREAM-SUBSAMPLE), or MEDIAN-BOOST's m copies of one.
  /// The sketch-file layer uses this to frame a 64-byte-aligned
  /// column-major arena section next to the payload, and the mapped load
  /// path to hand those columns to LoadEstimatorFromColumns without
  /// copying. Payloads with anything besides rows (header fields, per-row
  /// weights, answer tables) must leave this false.
  virtual bool HasRowMajorPayload(const SketchParams& params) const {
    (void)params;
    return false;
  }

  /// LoadEstimator's zero-copy sibling: builds the estimator view from
  /// an already-transposed column store over the summary (borrowed from
  /// an mmap'd arena section, or owned). Called only when
  /// HasRowMajorPayload(params) is true; `columns` holds exactly the
  /// transpose of `summary` at width d, and answers must be
  /// bit-identical to LoadEstimator(summary, ...). The default ignores
  /// the columns and defers to LoadEstimator, which is always correct --
  /// override alongside HasRowMajorPayload to actually skip the
  /// transpose.
  virtual std::unique_ptr<FrequencyEstimator> LoadEstimatorFromColumns(
      ColumnStore columns, const util::BitVector& summary,
      const SketchParams& params, std::size_t d, std::size_t n) const {
    (void)columns;
    return LoadEstimator(summary, params, d, n);
  }

  /// LoadIndicator's zero-copy sibling, same contract as
  /// LoadEstimatorFromColumns.
  virtual std::unique_ptr<FrequencyIndicator> LoadIndicatorFromColumns(
      ColumnStore columns, const util::BitVector& summary,
      const SketchParams& params, std::size_t d, std::size_t n) const {
    (void)columns;
    return LoadIndicator(summary, params, d, n);
  }

  /// Whether the query views can answer itemsets of cardinality `size`.
  /// The definitions only promise answers for k-itemsets; sample-based
  /// summaries answer any size (the sample is a database), but
  /// RELEASE-ANSWERS stores exactly the C(d,k) size-k answers and cannot
  /// answer anything else. Callers that query off-k sizes (e.g. Apriori
  /// levels 1..k) must check this first.
  virtual bool SupportsQuerySize(std::size_t size,
                                 const SketchParams& params) const {
    (void)size;
    (void)params;
    return true;
  }
};

}  // namespace ifsketch::core

#endif  // IFSKETCH_CORE_SKETCH_H_
