// The `ssta_yield` job: analytic timing-yield analysis of a design's
// nominal recipe, with an optional golden Monte-Carlo cross-check.
//
// Two graph traversals (one scalar base pass + one canonical-form pass)
// replace the thousands of Monte-Carlo re-timings a sampled yield estimate
// costs; the MC leg is retained as the accuracy oracle (bench_ssta charts
// the frontier) and as the degradation target when the SSTA forms are
// poisoned (ssta.nan fault injection), mirroring the serve stack's other
// self-healing ladders.
//
// A run is two steps: analyze_ssta_yield() builds the clock-independent
// curves and evaluate() reads one clock off them, so a caller that keeps
// the curves (the job server, per session) answers further clocks on the
// same recipe without re-analyzing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "flow/context.h"
#include "ssta/ssta.h"
#include "variation/yield.h"

namespace doseopt::flow {

/// Controls for one ssta_yield run.
struct SstaYieldOptions {
  variation::VariationModel model;  ///< shared SSTA/MC parameterization
  ssta::SstaOptions ssta;
  double tau_ns = 0.0;  ///< clock to evaluate yield at; 0 = nominal MCT
  /// Golden MC cross-check sample count; 0 skips the MC leg entirely
  /// (unless SSTA degrades, which always falls back to MC).
  int mc_samples = 0;
};

/// Deterministic result (no wall times: served replies are bit-compared
/// against direct calls).
struct SstaYieldResult {
  double tau_ns = 0.0;        ///< clock the yields are evaluated at
  std::size_t endpoints = 0;  ///< capture endpoints in the analytic scan

  // Analytic view.
  double ssta_mean_mct_ns = 0.0;
  double ssta_sigma_mct_ns = 0.0;
  double ssta_yield = 0.0;  ///< P(MCT <= tau); MC value when degraded
  double tau_p50_ns = 0.0;  ///< tau_at_yield(0.50)
  double tau_p95_ns = 0.0;  ///< tau_at_yield(0.95)
  double tau_p99_ns = 0.0;  ///< tau_at_yield(0.99)

  // Monte-Carlo view (zeroed when the MC leg did not run).
  int mc_samples = 0;
  double mc_yield = 0.0;
  double mc_mean_mct_ns = 0.0;
  double mc_std_mct_ns = 0.0;
  double yield_abs_error = 0.0;  ///< |ssta_yield - mc_yield|; 0 without MC

  // Traversal accounting (the speedup numerator/denominator).
  int ssta_traversals = 0;  ///< 2 when healthy (base pass + form pass)
  int mc_traversals = 0;    ///< batched passes the MC leg consumed

  /// Self-healing bookkeeping: degraded = SSTA forms were non-finite and
  /// the yield came from golden MC instead (fallback = "ssta_to_mc").
  bool degraded = false;
  std::string fallback;
};

/// The clock-independent half of an ssta_yield run: the analytic MCT
/// curve and, when the Monte-Carlo leg runs, the sampled one.  Every clock
/// is read off the same curves by evaluate().
struct SstaYieldCurves {
  std::size_t endpoints = 0;  ///< capture endpoints in the analytic scan
  /// Endpoint-panel MCT curve (endpoint forms dropped).  Unhealthy when
  /// the forms were poisoned; the MC curve is then the answer of record.
  std::shared_ptr<const ssta::SstaResult> ssta;
  /// Golden Monte-Carlo curve; null when the MC leg did not run.
  std::shared_ptr<const variation::YieldResult> mc;
  int mc_samples = 0;
  int mc_traversals = 0;  ///< batched passes the MC leg consumed
};

/// Curves of one design's nominal recipe, kept across ssta_yield runs.
/// The SSTA slot is keyed by (model, SstaOptions) and holds only healthy
/// curves; the MC slot is keyed by the model with its sample count.  The
/// owner serializes access and clears the memo when the design's
/// placement changes.
struct SstaYieldMemo {
  struct SstaSlot {
    variation::VariationModel model;
    ssta::SstaOptions options;
    std::shared_ptr<const ssta::SstaResult> curve;
  };
  struct McSlot {
    variation::VariationModel model;  ///< monte_carlo_samples = the count
    std::shared_ptr<const variation::YieldResult> curve;
  };
  std::optional<SstaSlot> ssta;
  std::optional<McSlot> mc;
  std::uint64_t ssta_hits = 0;  ///< runs served from the SSTA slot
  std::uint64_t mc_hits = 0;    ///< runs served from the MC slot

  void clear() {
    ssta.reset();
    mc.reset();
  }
};

/// Analyze `ctx`'s nominal variant assignment; with a memo, curves whose
/// key matches a slot are taken from it and fresh ones are stored.
SstaYieldCurves analyze_ssta_yield(DesignContext& ctx,
                                   const SstaYieldOptions& options,
                                   SstaYieldMemo* memo = nullptr);

/// Read the yields and quantiles at clock `tau_ns` off the curves.
SstaYieldResult evaluate(const SstaYieldCurves& curves, double tau_ns);

/// analyze_ssta_yield + evaluate at options.tau_ns (0 = nominal MCT).
SstaYieldResult run_ssta_yield(DesignContext& ctx,
                               const SstaYieldOptions& options,
                               SstaYieldMemo* memo = nullptr);

}  // namespace doseopt::flow
