#include "flow/ssta_yield.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace doseopt::flow {

namespace {

/// Smallest tau such that at least ceil(p * n) dies meet it (the empirical
/// p-quantile used when the analytic quantiles are unavailable).
double empirical_quantile(std::vector<double>& sorted_mcts, double p) {
  if (sorted_mcts.empty()) return 0.0;
  const std::size_t n = sorted_mcts.size();
  const std::size_t k = std::min(
      n, std::max<std::size_t>(
             1, static_cast<std::size_t>(
                    std::ceil(p * static_cast<double>(n)))));
  return sorted_mcts[k - 1];
}

}  // namespace

SstaYieldCurves analyze_ssta_yield(DesignContext& ctx,
                                   const SstaYieldOptions& options,
                                   SstaYieldMemo* memo) {
  SstaYieldCurves curves;
  const liberty::CoefficientSet& coeffs = ctx.coefficients(false);
  const sta::VariantAssignment base(ctx.netlist().cell_count());
  const ssta::SstaTimer engine(&ctx.timer(), &ctx.placement(), &coeffs,
                               options.model, options.ssta);
  curves.endpoints = engine.endpoint_count();

  if (memo != nullptr && memo->ssta && memo->ssta->model == options.model &&
      memo->ssta->options == options.ssta) {
    curves.ssta = memo->ssta->curve;
    ++memo->ssta_hits;
  } else {
    ssta::SstaResult sr = engine.analyze(base);
    sr.endpoints = {};  // evaluate() reads only the MCT curve
    curves.ssta = std::make_shared<const ssta::SstaResult>(std::move(sr));
    // A poisoned analysis is never kept: the next run must re-analyze.
    if (memo != nullptr && curves.ssta->healthy)
      memo->ssta = SstaYieldMemo::SstaSlot{options.model, options.ssta,
                                           curves.ssta};
  }

  // The MC leg runs when asked for, and always when SSTA degrades (then at
  // the model's sample count unless the caller pinned one).
  if (options.mc_samples <= 0 && curves.ssta->healthy) return curves;
  variation::VariationModel m = options.model;
  m.monte_carlo_samples = options.mc_samples > 0
                              ? options.mc_samples
                              : options.model.monte_carlo_samples;
  const int width =
      std::clamp(options.model.sta_batch_width, 1, sta::kBatchLanes);
  curves.mc_samples = m.monte_carlo_samples;
  curves.mc_traversals = (m.monte_carlo_samples + width - 1) / width;
  if (memo != nullptr && memo->mc && memo->mc->model == m) {
    curves.mc = memo->mc->curve;
    ++memo->mc_hits;
    return curves;
  }
  const variation::YieldAnalyzer analyzer(&ctx.netlist(), &ctx.placement(),
                                          &ctx.repo(), &ctx.timer(), m);
  curves.mc = std::make_shared<const variation::YieldResult>(
      analyzer.analyze(base));
  if (memo != nullptr) memo->mc = SstaYieldMemo::McSlot{m, curves.mc};
  return curves;
}

SstaYieldResult evaluate(const SstaYieldCurves& curves, double tau_ns) {
  SstaYieldResult res;
  res.tau_ns = tau_ns;
  res.endpoints = curves.endpoints;
  res.mc_samples = curves.mc_samples;
  res.mc_traversals = curves.mc_traversals;
  const variation::YieldResult* mc = curves.mc.get();
  if (mc != nullptr) {
    res.mc_yield = mc->yield_at(tau_ns);
    res.mc_mean_mct_ns = mc->mean_mct_ns;
    res.mc_std_mct_ns = mc->std_mct_ns;
  }

  const ssta::SstaResult& sr = *curves.ssta;
  if (!sr.healthy) {
    // Poisoned forms: the golden Monte-Carlo is the answer of record.
    res.degraded = true;
    res.fallback = "ssta_to_mc";
    res.ssta_yield = res.mc_yield;
    res.ssta_mean_mct_ns = mc->mean_mct_ns;
    res.ssta_sigma_mct_ns = mc->std_mct_ns;
    std::vector<double> mcts;
    mcts.reserve(mc->dies.size());
    for (const variation::DieSample& d : mc->dies) mcts.push_back(d.mct_ns);
    std::sort(mcts.begin(), mcts.end());
    res.tau_p50_ns = empirical_quantile(mcts, 0.50);
    res.tau_p95_ns = empirical_quantile(mcts, 0.95);
    res.tau_p99_ns = empirical_quantile(mcts, 0.99);
    return res;
  }

  res.ssta_traversals = 2;  // scalar base pass + canonical-form pass
  res.ssta_mean_mct_ns = sr.mean_mct_ns;
  res.ssta_sigma_mct_ns = sr.sigma_mct_ns;
  res.ssta_yield = sr.yield_at(tau_ns);
  res.tau_p50_ns = sr.tau_at_yield(0.50);
  res.tau_p95_ns = sr.tau_at_yield(0.95);
  res.tau_p99_ns = sr.tau_at_yield(0.99);
  if (mc != nullptr)
    res.yield_abs_error = std::fabs(res.ssta_yield - res.mc_yield);
  return res;
}

SstaYieldResult run_ssta_yield(DesignContext& ctx,
                               const SstaYieldOptions& options,
                               SstaYieldMemo* memo) {
  const SstaYieldCurves curves = analyze_ssta_yield(ctx, options, memo);
  return evaluate(curves, options.tau_ns > 0.0 ? options.tau_ns
                                               : ctx.nominal_mct_ns());
}

}  // namespace doseopt::flow
