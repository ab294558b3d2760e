// ifsketch::Engine -- the library's front door.
//
// The paper studies pairs (S, Q); everything else in this repo is the
// machinery behind one such pair. Engine packages the whole lifecycle so
// callers never hardcode a concrete algorithm class:
//
//   util::Rng rng(7);
//   auto eng = ifsketch::Engine::Build(db, "SUBSAMPLE", params, rng);
//   eng->Save("basket.sk");
//   ...
//   auto again = ifsketch::Engine::Open("basket.sk");   // any IFSK file;
//   double f  = again->estimate(itemset);               // algorithm comes
//   auto fs   = again->mine(mining_options);            // from the file
//
// Build resolves the algorithm name through core::SketchRegistry (so
// "MEDIAN-BOOST(SUBSAMPLE)" works as well as the five plain built-ins),
// Open re-resolves the name stored in the file, and the query methods
// lazily materialize the estimator/indicator views. estimate_many routes
// through the batched query path (core::FrequencyEstimator::EstimateMany)
// which shares column scans across the batch; it takes one flat
// core::QueryBatch, and its std::vector<Itemset> overload packs the
// vector into one. mine() batches each Apriori level the same way.
//
// One image: every Engine queries a validated IFSK v2 image through the
// one image parser (sketch/sketch_view.h). Open mmaps the file
// (util::MappedFile) and validates it in place; Build and FromFile (the
// ingest publish path) lay the sketch out as the same v2 image in
// anonymous memory (sketch::WriteSketchImage) and view it the same way.
// The summary and, for row-major algorithms, the pre-transposed column
// section are handed to the query views as borrowed, 64-byte-aligned
// words, so opening is O(header + d) instead of O(payload) and a fresh
// build or published snapshot answers its first query without a
// transpose. Only legacy v1 files decode their byte-packed payload into
// owned bits. Whatever the source, an Engine answers every query
// bit-identically to the decode reference (sketch::LoadEstimator /
// LoadIndicator over sketch::LoadSketchFile); view() exposes the
// image, resident_bytes() what it pins, and dropping the last reference
// releases the image (munmap).
//
// Threading contract: every query method is const and safe to call from
// any number of threads concurrently on one Engine. Lazy view
// materialization is guarded by std::call_once, and the built-in views
// are immutable once loaded. Batched queries (estimate_many,
// are_frequent, mine) additionally fan each batch out across
// util::ThreadPool::Default(); answers are bit-identical to the serial
// scalar loop at every thread count. Size the pool with
// util::ThreadPool::SetDefaultThreadCount (or the IFSKETCH_THREADS
// environment variable) from configuration code, before queries are in
// flight. Save/Build/Open are not synchronized against each other.
#ifndef IFSKETCH_ENGINE_H_
#define IFSKETCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/database.h"
#include "core/itemset.h"
#include "core/query_batch.h"
#include "core/sketch.h"
#include "mining/apriori.h"
#include "sketch/envelope.h"
#include "sketch/sketch_file.h"
#include "sketch/sketch_view.h"
#include "util/mapped_file.h"
#include "util/random.h"

namespace ifsketch {

/// Facade over build / save / open / query for any registered algorithm.
class Engine {
 public:
  /// Sketches `db` with the named algorithm. Returns nullopt when the
  /// registry cannot resolve `algorithm` (see KnownAlgorithms()).
  static std::optional<Engine> Build(const core::Database& db,
                                     const std::string& algorithm,
                                     const core::SketchParams& params,
                                     util::Rng& rng);

  /// Reopens a saved sketch, resolving the algorithm recorded in the
  /// file. Returns nullopt when the file is unreadable/malformed or its
  /// algorithm is not registered; when `error` is non-null it receives a
  /// one-line diagnostic naming the path and, for validation failures,
  /// the byte offset of the first bad field.
  static std::optional<Engine> Open(const std::string& path,
                                    std::string* error = nullptr);

  /// Writes `file` into an in-memory v2 image and queries that, as if
  /// it had been saved and opened (Build ends here too). Returns nullopt
  /// when the algorithm is not registered, the summary is not the size
  /// it emits, or the file is unserializable.
  static std::optional<Engine> FromFile(const sketch::SketchFile& file);

  /// Writes the sketch as an IFSK file (arena v2), atomically replacing
  /// `path` (write temp, fsync, rename). Returns false on I/O failure;
  /// the overload reports the errno/strerror detail in *error and can
  /// append the CRC32C integrity trailer for durable copies.
  bool Save(const std::string& path) const;
  bool Save(const std::string& path, std::string* error,
            sketch::SketchChecksum checksum =
                sketch::SketchChecksum::kNone) const;

  /// Names the default registry resolves, for error messages and --help.
  static std::vector<std::string> KnownAlgorithms();

  // ----------------------------------------------------------- metadata
  const std::string& algorithm() const { return view_->file.algorithm; }
  const core::SketchParams& params() const { return view_->file.params; }
  std::size_t n() const { return view_->file.n; }
  std::size_t d() const { return view_->file.d; }
  std::size_t summary_bits() const { return view_->file.summary.size(); }
  const sketch::SketchFile& file() const { return view_->file; }

  /// The validated image this Engine queries: view().image is the mmap'd
  /// file or the in-memory image (null for a decoded v1 file), and
  /// view().columns its column section, when it has one.
  const sketch::SketchView& view() const { return *view_; }

  /// Format version of the image: sketch::arena::kVersionArena, or
  /// kVersionLegacy for a decoded v1 file.
  std::uint16_t format_version() const { return view_->file.version; }

  /// Bytes this Engine pins for its summary data: the whole image --
  /// summary plus column section, what eviction releases -- or, for a
  /// decoded v1 file, the owned summary payload bytes. Serving-layer
  /// byte budgets (serve::SketchPod) account in these units.
  std::size_t resident_bytes() const;

  // ------------------------------------------------------------ queries
  /// Whether this sketch can answer queries of cardinality `size`.
  /// Sample-backed algorithms answer any size; RELEASE-ANSWERS only
  /// answers exactly params().k. Querying an unsupported size is a
  /// contract violation (the views abort rather than alias into a wrong
  /// answer), so gate on this for user-supplied query sizes.
  bool supports_query_size(std::size_t size) const;

  /// supports_query_size for every query of `batch`, asked once per run
  /// of equal sizes rather than once per query.
  bool supports_query_sizes(const core::QueryBatch& batch) const;

  /// Q(S, T) as a frequency estimate. Requires an estimator-flavored
  /// sketch (params().answer == Answer::kEstimator) and a supported
  /// query size.
  double estimate(const core::Itemset& t) const;

  /// Batched estimate over a flat batch; answers[i] corresponds to query
  /// i. Same requirement, bit-identical to per-query estimate() calls.
  /// Precondition: the batch is empty or its universe is d().
  void estimate_many(const core::QueryBatch& batch,
                     std::vector<double>* answers) const;

  /// Adapter: packs `ts` once and runs the flat estimate_many.
  void estimate_many(const std::vector<core::Itemset>& ts,
                     std::vector<double>* answers) const;

  /// Q(S, T) as a threshold bit (works for both answer flavors).
  bool is_frequent(const core::Itemset& t) const;

  /// Batched is_frequent over a flat batch (same precondition).
  void are_frequent(const core::QueryBatch& batch,
                    std::vector<bool>* answers) const;

  /// Adapter: packs `ts` once and runs the flat are_frequent.
  void are_frequent(const std::vector<core::Itemset>& ts,
                    std::vector<bool>* answers) const;

  /// Apriori over the sketch, batching each candidate level through
  /// estimate_many. Requires an estimator-flavored sketch that supports
  /// every query size 1..options.max_size (see supports_query_size).
  std::vector<mining::FrequentItemset> mine(
      const mining::AprioriOptions& options) const;

  // --------------------------------------------------------------- info
  /// The Theorem 12 envelope for this sketch's shape and parameters.
  sketch::EnvelopeReport envelope() const;

  /// Multi-line human-readable report: algorithm, parameters, shape,
  /// summary size, file format, where the image lives (mmap'd file,
  /// in-memory image, or decoded v1 payload), and the envelope
  /// comparison.
  std::string info() const;

 private:
  // Lazily-materialized query views plus their once-flags. Heap-held so
  // Engine stays movable (std::once_flag is neither movable nor
  // copyable); shared so copies of an Engine share the deserialized
  // views (they are pure functions of the immutable file contents).
  struct ViewCache {
    std::once_flag estimator_once;
    std::once_flag indicator_once;
    std::shared_ptr<const core::FrequencyEstimator> estimator;
    std::shared_ptr<const core::FrequencyIndicator> indicator;
  };

  Engine(sketch::SketchView view,
         std::shared_ptr<const core::SketchAlgorithm> algo)
      : view_(std::make_shared<const sketch::SketchView>(std::move(view))),
        algo_(std::move(algo)),
        query_views_(std::make_shared<ViewCache>()) {}

  const core::FrequencyEstimator& estimator() const;
  const core::FrequencyIndicator& indicator() const;

  /// The one view-selection rule: queries adopt the image's column
  /// section when it has one and the algorithm's payload is row-major,
  /// and decode the summary otherwise.
  bool AdoptsColumns() const;

  /// The borrowed column store over the image's column section; only
  /// callable when AdoptsColumns().
  core::ColumnStore BorrowedColumns() const;

  // `view_` owns the image behind file().summary and the column
  // section, shared by every copy of the Engine (a copied SketchFile
  // would deep-copy the summary out of the image); it is declared before
  // query_views_ so that when the last copy of an Engine dies, the
  // cached views are destroyed before the image they may point into.
  std::shared_ptr<const sketch::SketchView> view_;
  std::shared_ptr<const core::SketchAlgorithm> algo_;
  // Query views are materialized on first use (std::call_once, so
  // concurrent first queries are safe) and cached.
  std::shared_ptr<ViewCache> query_views_;
};

}  // namespace ifsketch

#endif  // IFSKETCH_ENGINE_H_
