#include "engine.h"

#include <cstdio>

#include "sketch/builtin_algorithms.h"
#include "util/check.h"

namespace ifsketch {
namespace {

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string FormatSketchError(const std::string& path,
                              const sketch::SketchError& error) {
  return path + ": byte " + std::to_string(error.offset) + ": " +
         error.message;
}

/// Resolves the algorithm `file` names and checks that its summary is
/// the size that algorithm emits; nullptr with the reason in *error
/// otherwise. A header can be well-formed while its payload is not the
/// algorithm's: Build() contractually emits exactly PredictedSizeBits,
/// so anything else would only abort later inside a loader CHECK.
std::unique_ptr<core::SketchAlgorithm> ResolvePayload(
    const sketch::SketchFile& file, std::string* error) {
  auto algo = sketch::ResolveAlgorithm(file);
  if (algo == nullptr) {
    SetError(error, "unknown algorithm \"" + file.algorithm + "\"");
    return nullptr;
  }
  const std::size_t predicted =
      algo->PredictedSizeBits(file.n, file.d, file.params);
  if (file.summary.size() != predicted) {
    SetError(error, "summary payload is " +
                        std::to_string(file.summary.size()) + " bits but " +
                        file.algorithm + " would emit " +
                        std::to_string(predicted) +
                        " for this shape (corrupt or tampered file)");
    return nullptr;
  }
  return algo;
}

}  // namespace

std::optional<Engine> Engine::Build(const core::Database& db,
                                    const std::string& algorithm,
                                    const core::SketchParams& params,
                                    util::Rng& rng) {
  if (!core::ValidSketchParams(params)) return std::nullopt;
  auto algo = sketch::BuiltinRegistry().Create(algorithm);
  if (algo == nullptr) return std::nullopt;

  sketch::SketchFile file;
  file.algorithm = algo->name();
  file.params = params;
  file.n = db.num_rows();
  file.d = db.num_columns();
  file.summary = algo->Build(db, params, rng);
  return FromFile(file);
}

std::optional<Engine> Engine::FromFile(const sketch::SketchFile& file) {
  auto algo = ResolvePayload(file, nullptr);
  auto image = algo == nullptr ? nullptr : sketch::WriteSketchImage(file);
  if (image == nullptr) return std::nullopt;
  auto view = sketch::ViewSketchImage(std::move(image));
  // The writer emits only what the parser accepts.
  IFSKETCH_CHECK(view.has_value());
  return Engine(*std::move(view), std::move(algo));
}

std::optional<Engine> Engine::Open(const std::string& path,
                                   std::string* error) {
  std::string open_error;
  auto image = util::MappedFile::Open(path, &open_error);
  if (image == nullptr) {
    SetError(error, open_error);
    return std::nullopt;
  }
  sketch::SketchError parse_error;
  auto view = sketch::ViewSketchImage(std::move(image), &parse_error);
  if (!view.has_value()) {
    SetError(error, FormatSketchError(path, parse_error));
    return std::nullopt;
  }
  std::string reason;
  auto algo = ResolvePayload(view->file, &reason);
  if (algo == nullptr) {
    SetError(error, path + ": " + reason);
    return std::nullopt;
  }
  // A v1 payload was decoded into owned bits; nothing borrows the image.
  if (!view->file.summary.is_view()) view->image.reset();
  return Engine(*std::move(view), std::move(algo));
}

bool Engine::Save(const std::string& path) const {
  return sketch::SaveSketchFile(path, view_->file);
}

bool Engine::Save(const std::string& path, std::string* error,
                  sketch::SketchChecksum checksum) const {
  sketch::SketchError detail;
  if (sketch::SaveSketchFile(path, view_->file,
                             sketch::arena::kVersionArena, checksum,
                             &detail)) {
    return true;
  }
  if (error != nullptr) *error = detail.message;
  return false;
}

std::vector<std::string> Engine::KnownAlgorithms() {
  return sketch::BuiltinRegistry().Names();
}

std::size_t Engine::resident_bytes() const {
  if (view_->image != nullptr) return view_->image->size();
  return (view_->file.summary.size() + 7) / 8;
}

bool Engine::AdoptsColumns() const {
  return view_->columns.has_value() &&
         algo_->HasRowMajorPayload(view_->file.params);
}

core::ColumnStore Engine::BorrowedColumns() const {
  const sketch::ArenaColumns& columns = *view_->columns;
  return core::ColumnStore::FromColumnWords(columns.words, columns.rows,
                                            columns.d, columns.stride_words);
}

const core::FrequencyEstimator& Engine::estimator() const {
  std::call_once(query_views_->estimator_once, [this] {
    const sketch::SketchFile& file = view_->file;
    // The estimator view only exists for estimator-flavored summaries
    // (e.g. RELEASE-ANSWERS stores single decision bits otherwise).
    IFSKETCH_CHECK(file.params.answer == core::Answer::kEstimator);
    query_views_->estimator =
        AdoptsColumns()
            ? algo_->LoadEstimatorFromColumns(BorrowedColumns(), file.summary,
                                              file.params, file.d, file.n)
            : algo_->LoadEstimator(file.summary, file.params, file.d,
                                   file.n);
  });
  return *query_views_->estimator;
}

const core::FrequencyIndicator& Engine::indicator() const {
  std::call_once(query_views_->indicator_once, [this] {
    const sketch::SketchFile& file = view_->file;
    query_views_->indicator =
        AdoptsColumns()
            ? algo_->LoadIndicatorFromColumns(BorrowedColumns(), file.summary,
                                              file.params, file.d, file.n)
            : algo_->LoadIndicator(file.summary, file.params, file.d,
                                   file.n);
  });
  return *query_views_->indicator;
}

bool Engine::supports_query_size(std::size_t size) const {
  return algo_->SupportsQuerySize(size, params());
}

bool Engine::supports_query_sizes(const core::QueryBatch& batch) const {
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t size = batch.query_size(i);
    if (i > 0 && size == batch.query_size(i - 1)) continue;
    if (!supports_query_size(size)) return false;
  }
  return true;
}

double Engine::estimate(const core::Itemset& t) const {
  return estimator().EstimateFrequency(t);
}

void Engine::estimate_many(const core::QueryBatch& batch,
                           std::vector<double>* answers) const {
  IFSKETCH_CHECK(batch.empty() || batch.universe() == d());
  estimator().EstimateMany(batch, answers);
}

void Engine::estimate_many(const std::vector<core::Itemset>& ts,
                           std::vector<double>* answers) const {
  estimate_many(core::QueryBatch::FromItemsets(ts), answers);
}

bool Engine::is_frequent(const core::Itemset& t) const {
  return indicator().IsFrequent(t);
}

void Engine::are_frequent(const core::QueryBatch& batch,
                          std::vector<bool>* answers) const {
  IFSKETCH_CHECK(batch.empty() || batch.universe() == d());
  indicator().AreFrequent(batch, answers);
}

void Engine::are_frequent(const std::vector<core::Itemset>& ts,
                          std::vector<bool>* answers) const {
  are_frequent(core::QueryBatch::FromItemsets(ts), answers);
}

std::vector<mining::FrequentItemset> Engine::mine(
    const mining::AprioriOptions& options) const {
  // Apriori queries every level 1..max_size; an algorithm that only
  // answers size-k queries (RELEASE-ANSWERS) cannot drive it.
  for (std::size_t size = 1; size <= options.max_size; ++size) {
    IFSKETCH_CHECK(supports_query_size(size));
  }
  return mining::MineWithEstimatorBatched(estimator(), d(), options);
}

sketch::EnvelopeReport Engine::envelope() const {
  return sketch::NaiveEnvelope(n(), d(), params());
}

std::string Engine::info() const {
  const sketch::EnvelopeReport env = envelope();
  const sketch::SketchFile& file = view_->file;
  const char* format = file.version == sketch::arena::kVersionArena
                           ? "IFSK v2 (arena sections)"
                           : "IFSK v1 (byte-packed)";
  // Where the queried bits live: the file's own page-cache pages (what
  // operators confirming zero-copy look for), a private image (built,
  // published, or a file read without mmap), or owned bits decoded from
  // a v1 payload.
  const char* path =
      view_->image == nullptr
          ? "decoded (v1 payload parsed into owned bits)"
          : (view_->image->is_mapped()
                 ? "mapped (zero-copy views over the mmap'd file image)"
                 : "in-memory image (zero-copy views over a private "
                   "image)");
  char buffer[896];
  std::snprintf(
      buffer, sizeof(buffer),
      "algorithm:  %s\n"
      "guarantee:  %s %s  (k=%zu, eps=%g, delta=%g)\n"
      "database:   n=%zu rows, d=%zu attributes (%zu bits)\n"
      "summary:    %zu bits (%.4f%% of the database)\n"
      "file:       %s\n"
      "load path:  %s, %zu resident bytes\n"
      "envelope:   RELEASE-DB=%zu  RELEASE-ANSWERS=%zu  SUBSAMPLE=%zu\n"
      "            Theorem-12 winner for this shape: %s (%zu bits)\n",
      file.algorithm.c_str(), core::ToString(file.params.scope),
      core::ToString(file.params.answer), file.params.k, file.params.eps,
      file.params.delta, file.n, file.d, file.n * file.d,
      file.summary.size(),
      file.n * file.d == 0
          ? 0.0
          : 100.0 * static_cast<double>(file.summary.size()) /
                static_cast<double>(file.n * file.d),
      format, path, resident_bytes(), env.release_db_bits,
      env.release_answers_bits, env.subsample_bits, env.winner.c_str(),
      env.winner_bits);
  return buffer;
}

}  // namespace ifsketch
