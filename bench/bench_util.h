// The harness the micro_* benches share: sketch parameters and random
// queries, a stopwatch, the `--json [path]` and list flags, the row type
// and JSON writer of the repo's stable bench schema
//   {"kernel": str, "threads": int, "batch": int, "ns_per_query": float}
// (micro_serve adds "p50_ns" and "p99_ns"), and the paired-block
// statistic behind the overhead gates. A gate times paired blocks of the
// baseline and the candidate back to back, alternating which runs first
// so host drift lands on both halves of a pair alike, and fails only
// when a one-sided 99% lower confidence bound on the median per-pair
// ratio exceeds its bar -- a regression, not a noisy host.
#ifndef IFSKETCH_BENCH_BENCH_UTIL_H_
#define IFSKETCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/itemset.h"
#include "core/sketch.h"
#include "util/random.h"

namespace ifsketch::bench {

/// What every micro bench sketches with: k = 3, eps = delta = 0.05,
/// for-all estimator.
inline core::SketchParams Params() {
  core::SketchParams p;
  p.k = 3;
  p.eps = 0.05;
  p.delta = 0.05;
  p.scope = core::Scope::kForAll;
  p.answer = core::Answer::kEstimator;
  return p;
}

/// `count` random 3-itemsets over d attributes, drawn from `rng`.
inline std::vector<core::Itemset> RandomQueries(std::size_t d,
                                                std::size_t count,
                                                util::Rng& rng) {
  std::vector<core::Itemset> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Itemset t(d);
    while (t.size() < 3) t.Add(static_cast<std::size_t>(rng.UniformInt(d)));
    queries.push_back(std::move(t));
  }
  return queries;
}

/// One row of the bench schema.
struct Row {
  Row(std::string kernel, std::size_t threads, std::size_t batch,
      double ns_per_query, std::optional<double> p50_ns = std::nullopt,
      std::optional<double> p99_ns = std::nullopt)
      : kernel(std::move(kernel)),
        threads(threads),
        batch(batch),
        ns_per_query(ns_per_query),
        p50_ns(p50_ns),
        p99_ns(p99_ns) {}

  std::string kernel;
  std::size_t threads;
  std::size_t batch;
  double ns_per_query;
  /// Per-query request-latency percentiles, written only when set.
  std::optional<double> p50_ns;
  std::optional<double> p99_ns;
};

/// Nanoseconds since `start` on the steady clock.
inline double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Consumes `--json [path]` at argv[*i]: true when argv[*i] is --json,
/// with a following argument that does not start with '-' taken as the
/// output path (stdout otherwise).
inline bool ConsumeJsonFlag(int argc, char** argv, int* i,
                            std::string* out_path) {
  if (std::string(argv[*i]) != "--json") return false;
  if (*i + 1 < argc && argv[*i + 1][0] != '-') *out_path = argv[++*i];
  return true;
}

/// The non-empty tokens of a comma-separated list.
inline std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> tokens;
  for (std::size_t pos = 0; pos < csv.size();) {
    const std::size_t next = std::min(csv.find(',', pos), csv.size());
    if (next > pos) tokens.push_back(csv.substr(pos, next - pos));
    pos = next + 1;
  }
  return tokens;
}

/// The positive integers of a comma-separated list; other tokens are
/// dropped.
inline std::vector<std::size_t> ParseList(const std::string& csv) {
  std::vector<std::size_t> out;
  for (const std::string& token : SplitList(csv)) {
    const long v = std::strtol(token.c_str(), nullptr, 10);
    if (v > 0) out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

/// Writes `rows` as the schema's JSON array to `out_path` (stdout when
/// empty), ns figures with `decimals` digits. Returns false when the
/// file cannot be opened.
inline bool WriteRows(const std::vector<Row>& rows,
                      const std::string& out_path, int decimals = 1) {
  std::FILE* out =
      out_path.empty() ? stdout : std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return false;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(out,
                 "  {\"kernel\": \"%s\", \"threads\": %zu, \"batch\": %zu, "
                 "\"ns_per_query\": %.*f",
                 row.kernel.c_str(), row.threads, row.batch, decimals,
                 row.ns_per_query);
    if (row.p50_ns.has_value()) {
      std::fprintf(out, ", \"p50_ns\": %.*f", decimals, *row.p50_ns);
    }
    if (row.p99_ns.has_value()) {
      std::fprintf(out, ", \"p99_ns\": %.*f", decimals, *row.p99_ns);
    }
    std::fprintf(out, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return true;
}

/// The largest rank j (1-based) such that the j-th smallest of n samples
/// is a one-sided `confidence` lower bound on their median:
/// P(Binomial(n, 1/2) >= j) >= confidence. Needs n <= 1000 (2^-n must not
/// underflow).
inline std::size_t MedianLowerBoundRank(std::size_t n, double confidence) {
  double pmf = std::ldexp(1.0, -static_cast<int>(n));  // P(B = 0)
  double tail = 1.0 - pmf;                              // P(B >= 1)
  std::size_t j = 1;
  for (; j < n; ++j) {
    pmf *= static_cast<double>(n - j + 1) / static_cast<double>(j);
    if (tail - pmf < confidence) break;  // P(B >= j + 1) too small
    tail -= pmf;
  }
  return j;
}

/// What `pairs` paired blocks measured: each side's summed block time,
/// and the median per-pair ratio candidate / baseline with its one-sided
/// 99% lower confidence bound.
struct PairedRatio {
  double baseline_ns = 0.0;
  double candidate_ns = 0.0;
  double median = 0.0;
  double lower_bound = 0.0;
};

/// Times `pairs` pairs of blocks, baseline() then candidate() on even
/// pairs and the other way round on odd ones; each returns its block's
/// elapsed ns.
template <typename Baseline, typename Candidate>
PairedRatio RunPairedBlocks(std::size_t pairs, Baseline baseline,
                            Candidate candidate) {
  PairedRatio result;
  std::vector<double> ratios;
  ratios.reserve(pairs);
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    double base = 0.0;
    double cand = 0.0;
    if (pair % 2 == 0) {
      base = baseline();
      cand = candidate();
    } else {
      cand = candidate();
      base = baseline();
    }
    result.baseline_ns += base;
    result.candidate_ns += cand;
    ratios.push_back(cand / base);
  }
  std::sort(ratios.begin(), ratios.end());
  result.median = ratios[ratios.size() / 2];
  result.lower_bound = ratios[MedianLowerBoundRank(ratios.size(), 0.99) - 1];
  return result;
}

}  // namespace ifsketch::bench

#endif  // IFSKETCH_BENCH_BENCH_UTIL_H_
