// Traced run: replay one served round's inputs by calling each layer's
// public functions directly from one thread, time those calls, and read the
// counts they already return.  Nothing inside src/ is instrumented.
//
// Layer times are taken at one lane (the served width): every call runs
// inside a 1-lane ThreadPool region, where nested parallel loops collapse
// exactly as they do on a server lane.  The common.* ratios also time the
// same call at every core.
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "flow/context.h"
#include "flow/optimize.h"
#include "flow/ssta_yield.h"
#include "perfbench.h"
#include "serde/journal.h"
#include "serde/result_store.h"
#include "serde/snapshot.h"
#include "ssta/ssta.h"
#include "sta/timer.h"
#include "variation/yield.h"

namespace perfbench {

using doseopt::ThreadPool;
using doseopt::serve::JobSpec;
using doseopt::serve::Json;
namespace flow = doseopt::flow;
namespace fs = std::filesystem;

namespace {

/// Share of served time that may be left over by the layer sums before
/// the run calls it out.
constexpr double kOverheadShare = 0.10;

/// Time `fn` at one lane: inside a pool region, nested loops run inline.
template <typename F>
double serial(F&& fn) {
  ThreadPool one(1);
  const auto t0 = Clock::now();
  one.parallel_for(1, [&](std::size_t) { fn(); });
  return seconds_since(t0);
}

template <typename F>
double timed(F&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

std::string normalized(const Json& doc) {
  return doseopt::serve::normalized_result(doc).dump();
}

struct Session {
  std::unique_ptr<flow::DesignContext> ctx;
  double build_s = 0.0;
  double fit_s = 0.0;
};

/// DMopt / QP / dosePl counts and times summed over replayed flow jobs.
struct FlowTotals {
  double runtime_s = 0, assembly_s = 0, qp_solve_s = 0, extract_s = 0;
  double rounds = 0, cuts = 0, probes = 0, admm = 0;
  double mg_seeds = 0, mg_rejects = 0, mixed_fallbacks = 0, capped = 0;
  double dosepl_s = 0, dosepl_rounds = 0, dosepl_accepted = 0;

  void add(const flow::FlowResult& r) {
    const auto& t = r.dmopt.telemetry;
    runtime_s += r.dmopt.runtime_s;
    assembly_s += t.assembly_ns * 1e-9;
    qp_solve_s += t.solve_ns * 1e-9;
    extract_s += t.extract_ns * 1e-9;
    rounds += t.total_rounds;
    cuts += static_cast<double>(t.total_cuts);
    probes += r.dmopt.bisection_probes;
    admm += t.total_admm_iterations;
    mg_seeds += t.mg_seeds;
    mg_rejects += t.mg_rejects;
    mixed_fallbacks += t.qp_mixed_fallbacks;
    if (r.dmopt.solver_status == doseopt::qp::QpStatus::kMaxIterations)
      ++capped;
    if (r.dosepl_run) {
      dosepl_s += r.dosepl.runtime_s;
      dosepl_rounds += r.dosepl.rounds_run;
      dosepl_accepted += r.dosepl.rounds_accepted;
    }
  }
};

/// Whether a replayed DMopt job counts towards the dmopt/qp/doseplace sums:
/// only the workload's main phase does, so on each workload those sums
/// read the jobs its end-to-end metrics time ("campaign" = phase C).
bool in_main_phase(const WorkloadConfig& cfg, const std::string& phase) {
  if (cfg.name == "paper_sweep") return phase == "cold" || phase == "warm";
  if (cfg.name == "yield_signoff") return phase == "yield_target";
  return phase == "campaign";
}

/// Run one flow job directly, restoring the session afterwards exactly as
/// the server does for dosePl jobs.
flow::FlowResult direct_flow(flow::DesignContext& ctx, const JobSpec& spec,
                             double* seconds) {
  std::optional<doseopt::place::Placement> placement;
  std::optional<doseopt::extract::Parasitics> parasitics;
  if (spec.run_dosepl) {
    placement = ctx.placement();
    parasitics = ctx.parasitics();
  }
  flow::FlowResult r;
  *seconds = serial([&] { r = flow::run_flow(ctx, spec.flow_options()); });
  if (placement) {
    ctx.placement() = std::move(*placement);
    ctx.parasitics() = std::move(*parasitics);
  }
  return r;
}

}  // namespace

int run_lane_probe(const WorkloadConfig& cfg) {
  const PaperJob& job = cfg.paper_jobs.front();
  JobSpec spec;
  spec.design = job.design;
  spec.scale = cfg.paper_scale;
  spec.mode = job.mode;
  spec.grid_um = job.grid_um;
  flow::DesignContext ctx(spec.design_spec());
  ctx.coefficients(false);
  const double s = timed([&] { flow::run_flow(ctx, spec.flow_options()); });
  std::printf("%.9f\n", s);
  return 0;
}

Json run_traced(const WorkloadConfig& cfg, const RunOptions& opts,
                RoundResult& rr) {
  const std::string tdir = opts.workdir + "/trace";
  fs::create_directories(tdir);
  std::map<std::uint64_t, Session> sessions;
  std::vector<std::uint64_t> paper_keys, yield_keys;
  const auto session = [&](const JobSpec& spec, bool* fresh) -> Session& {
    Session& s = sessions[spec.session_key()];
    *fresh = !s.ctx;
    if (!s.ctx) {
      s.build_s = serial([&] {
        s.ctx = std::make_unique<flow::DesignContext>(spec.design_spec());
      });
      s.fit_s = serial([&] { s.ctx->coefficients(false); });
    }
    return s;
  };
  const auto mismatch = [&](const std::string& what) {
    rr.check_failures.push_back("traced: " + what);
  };

  // ---- phases A and B: every served job, replayed directly.
  FlowTotals totals;
  double served_s = 0.0, layer_s = 0.0;
  int served_jobs = 0;
  for (const JobRecord& j : rr.jobs) {
    if (!j.ok) continue;
    bool fresh = false;
    Session& s = session(j.spec, &fresh);
    if (fresh)
      (j.phase == "cold" || j.phase == "warm" ? paper_keys : yield_keys)
          .push_back(j.spec.session_key());
    double job_layers = j.phase == "cold" ? s.build_s + s.fit_s : 0.0;
    if (j.spec.mode == "ssta_yield") {
      flow::SstaYieldResult r;
      job_layers += serial(
          [&] { r = flow::run_ssta_yield(*s.ctx, j.spec.ssta_options()); });
      if (doseopt::serve::ssta_yield_result_to_json(r).dump() !=
          j.result.dump())
        mismatch(j.spec.id + " served ssta_yield differs from direct");
    } else {
      double t = 0.0;
      const flow::FlowResult r = direct_flow(*s.ctx, j.spec, &t);
      job_layers += t;
      if (in_main_phase(cfg, j.phase)) totals.add(r);
      if (normalized(doseopt::serve::flow_result_to_json(r)) !=
          normalized(j.result))
        mismatch(j.spec.id + " served flow result differs from direct");
    }
    served_s += j.latency_s;
    layer_s += job_layers;
    ++served_jobs;
  }
  const double serve_overhead = served_s - layer_s;
  if (served_s > 0.0 && serve_overhead > kOverheadShare * served_s)
    std::fprintf(stderr,
                 "perfbench: NOTE served time not covered by layer sums: "
                 "%.3f s of %.3f s (over %.0f%%)\n",
                 serve_overhead, served_s, kOverheadShare * 100.0);

  // ---- phase C: campaign jobs replayed directly.
  double campaign_job_s = 0.0, campaign_wall_s = 0.0;
  for (const RoundResult::Campaign& c : rr.campaigns) {
    if (c.artifact.empty()) continue;
    campaign_wall_s += c.report.wall_s;
    const auto jobs = doseopt::campaign::expand_campaign(c.spec);
    const Json art = Json::parse(c.artifact);
    const auto& results = art.get("results").items();
    for (std::size_t i = 0; i < jobs.size() && i < results.size(); ++i) {
      bool fresh = false;
      Session& s = session(jobs[i].spec, &fresh);
      if (fresh) campaign_job_s += s.build_s + s.fit_s;
      double t = 0.0;
      const flow::FlowResult r = direct_flow(*s.ctx, jobs[i].spec, &t);
      campaign_job_s += t;
      if (in_main_phase(cfg, "campaign")) totals.add(r);
      if (normalized(doseopt::serve::flow_result_to_json(r)) !=
          results[i].get("result").dump())
        mismatch(jobs[i].id + " committed result differs from direct");
    }
  }
  // The fleet runs the campaign on two single-lane workers.
  const double campaign_overhead = campaign_wall_s - campaign_job_s / 2.0;
  if (campaign_overhead > kOverheadShare * campaign_wall_s)
    std::fprintf(stderr,
                 "perfbench: NOTE campaign wall time not covered by job "
                 "time: %.3f s of %.3f s (over %.0f%%)\n",
                 campaign_overhead, campaign_wall_s, kOverheadShare * 100.0);

  // ---- flow / liberty / sta on the paper designs.
  double build = 0, fit = 0, variants = 0, analyze_ms = 0, update_us = 0;
  doseopt::Rng rng(opts.seed);
  for (const std::uint64_t key : paper_keys) {
    Session& s = sessions[key];
    build += s.build_s;
    fit += s.fit_s;
    variants += static_cast<double>(s.ctx->repo().characterized_count());
    const auto& timer = s.ctx->timer();
    const std::size_t cells = s.ctx->netlist().cell_count();
    const doseopt::sta::VariantAssignment base(cells);
    constexpr int kReps = 5;
    analyze_ms += serial([&] {
                    for (int k = 0; k < kReps; ++k) timer.analyze(base);
                  }) * 1e3 / kReps;
    // Incremental update after a two-cell variant change.
    doseopt::sta::TimingState state;
    serial([&] { timer.update(state, base); });
    constexpr int kSwaps = 20;
    double swaps_s = 0.0;
    for (int k = 0; k < kSwaps; ++k) {
      doseopt::sta::VariantAssignment va = base;
      va.set(static_cast<doseopt::netlist::CellId>(rng.uniform_index(cells)),
             8, 10);
      va.set(static_cast<doseopt::netlist::CellId>(rng.uniform_index(cells)),
             12, 10);
      swaps_s += serial([&] { timer.update(state, va); });
      serial([&] { timer.update(state, base); });
    }
    update_us += swaps_s * 1e6 / kSwaps;
  }
  const double np = std::max<std::size_t>(1, paper_keys.size());

  // ---- ssta / variation / batched sta on the yield designs.
  ThreadPool wide(0);
  double ssta_s = 0, dies_per_s = 0, mc_speedup = 0, batch_ns = 0;
  for (const std::uint64_t key : yield_keys) {
    flow::DesignContext& ctx = *sessions[key].ctx;
    const std::size_t cells = ctx.netlist().cell_count();
    const doseopt::sta::VariantAssignment base(cells);
    const doseopt::ssta::SstaTimer engine(&ctx.timer(), &ctx.placement(),
                                          &ctx.coefficients(false),
                                          doseopt::variation::VariationModel{});
    ssta_s += serial([&] { engine.analyze(base); });

    doseopt::variation::VariationModel model;
    model.monte_carlo_samples = cfg.mc_samples;
    const doseopt::variation::YieldAnalyzer mc(
        &ctx.netlist(), &ctx.placement(), &ctx.repo(), &ctx.timer(), model);
    ThreadPool one(1);
    const double t1 = timed([&] { mc.analyze(base, &one); });
    const double tn = timed([&] { mc.analyze(base, &wide); });
    dies_per_s += cfg.mc_samples / t1;
    mc_speedup += t1 / tn;

    // Batched dies must equal the scalar golden re-timing bit for bit.
    model.monte_carlo_samples = 64;
    const doseopt::variation::YieldAnalyzer small(
        &ctx.netlist(), &ctx.placement(), &ctx.repo(), &ctx.timer(), model);
    const auto batched = small.analyze(base, &one);
    const auto scalar = small.analyze_scalar(base, &one);
    bool same = batched.dies.size() == scalar.dies.size();
    for (std::size_t i = 0; same && i < batched.dies.size(); ++i)
      same = std::memcmp(&batched.dies[i], &scalar.dies[i],
                         sizeof(batched.dies[i])) == 0;
    if (!same) mismatch("batched MC dies differ from analyze_scalar");

    const doseopt::sta::BatchedTimer bt(&ctx.timer());
    doseopt::sta::BatchWorkspace ws;
    constexpr int kLanes = doseopt::sta::kBatchLanes;
    std::vector<std::uint8_t> panel(cells * kLanes);
    for (std::uint8_t& p : panel)
      p = static_cast<std::uint8_t>(8 + rng.uniform_index(5));
    constexpr int kBatches = 20;
    batch_ns += serial([&] {
                  for (int k = 0; k < kBatches; ++k)
                    bt.analyze_batch_indices(base, panel.data(), kLanes, ws,
                                             false, false);
                }) * 1e9 / (kBatches * kLanes);
  }
  const double ny = std::max<std::size_t>(1, yield_keys.size());

  // SSTA vs MC yield error at each SSTA quantile clock (max over designs).
  double err50 = 0, err95 = 0, err99 = 0;
  for (const JobRecord& j : rr.jobs) {
    if (!j.ok || j.phase != "yield") continue;
    const double tau = j.result.get_number("tau_ns", 0);
    const Json& ssta = j.result.get("ssta");
    const double err = j.result.get_number("yield_abs_error", 0) * 100.0;
    if (tau == ssta.get_number("tau_p50_ns", -1)) err50 = std::max(err50, err);
    if (tau == ssta.get_number("tau_p95_ns", -1)) err95 = std::max(err95, err);
    if (tau == ssta.get_number("tau_p99_ns", -1)) err99 = std::max(err99, err);
  }

  // ---- common: one DMopt call at 1 lane and at every core.  The pool
  // width is fixed per process, so each width runs in a child process.
  const auto probe = [&](unsigned lanes) {
    const std::string cmd =
        "DOSEOPT_THREADS=" + std::to_string(lanes) + " '" +
        fs::read_symlink("/proc/self/exe").string() + "' --workload " +
        cfg.name + " --lane-probe 1";
    FILE* p = popen(cmd.c_str(), "r");
    double s = 0.0;
    if (p == nullptr) return s;
    if (std::fscanf(p, "%lf", &s) != 1) s = 0.0;
    pclose(p);
    return s;
  };
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double probe_1 = probe(1), probe_n = probe(cores);
  const double dmopt_speedup = probe_n > 0.0 ? probe_1 / probe_n : 0.0;

  // ---- serde.
  double append_us = 0, write_us = 0, read_us = 0;
  {
    doseopt::serde::JournalWriter jw(tdir + "/journal");
    constexpr int kAppends = 50;
    append_us = timed([&] {
                  for (int k = 0; k < kAppends; ++k)
                    jw.append(static_cast<std::uint32_t>(
                                  doseopt::campaign::Rec::kIntent),
                              doseopt::campaign::encode_intent(k, k * 7919u));
                }) * 1e6 / kAppends;
    int docs = 0;
    for (const JobRecord& j : rr.jobs) {
      if (!j.ok) continue;
      const std::string doc = normalized(j.result);
      const std::uint64_t key = j.spec.job_key();
      write_us += timed([&] {
        doseopt::serde::write_result(tdir + "/results", key, doc);
      });
      std::optional<std::string> back;
      read_us += timed([&] {
        back = doseopt::serde::read_result(tdir + "/results", key);
      });
      if (!back || *back != doc) mismatch("result store round trip");
      ++docs;
    }
    write_us = write_us * 1e6 / std::max(1, docs);
    read_us = read_us * 1e6 / std::max(1, docs);
  }
  double snap_write_ms = 0, snap_read_ms = 0, snap_mb = 0;
  if (!paper_keys.empty()) {
    flow::DesignContext& ctx = *sessions[paper_keys.front()].ctx;
    const std::string path = tdir + "/design.snap";
    snap_write_ms = timed([&] { ctx.save_snapshot(path); }) * 1e3;
    snap_read_ms =
        timed([&] { doseopt::serde::read_design_snapshot(path); }) * 1e3;
    snap_mb = static_cast<double>(fs::file_size(path)) / (1024.0 * 1024.0);
  }
  double replay_ms = 0.0;
  for (std::size_t i = 0; i < rr.campaigns.size(); ++i) {
    const std::string journal = opts.workdir + "/r0/journal" + std::to_string(i);
    replay_ms += timed([&] {
                   doseopt::campaign::scan_journal(
                       doseopt::serde::replay_journal(journal));
                 }) * 1e3;
  }

  Json m = Json::object();
  const auto put = [&](const char* name, double value, const char* unit) {
    Json v = Json::object();
    v.set("value", Json::number(value));
    v.set("unit", Json::string(unit));
    m.set(name, std::move(v));
  };
  put("flow.context_build_s", build / np, "s");
  put("liberty.fit_s", fit / np, "s");
  put("liberty.variants", variants / np, "count");
  put("sta.analyze_ms", analyze_ms / np, "ms");
  put("sta.update_us", update_us / np, "us");
  put("sta.batch_ns_per_lane", batch_ns / ny, "ns");
  put("dmopt.solve_s", totals.runtime_s, "s");
  put("dmopt.assembly_s", totals.assembly_s, "s");
  put("dmopt.extract_s", totals.extract_s, "s");
  put("dmopt.signoff_s",
      totals.runtime_s - totals.assembly_s - totals.qp_solve_s -
          totals.extract_s,
      "s");
  put("dmopt.rounds", totals.rounds, "count");
  put("dmopt.cuts", totals.cuts, "count");
  put("dmopt.probes", totals.probes, "count");
  put("qp.solve_s", totals.qp_solve_s, "s");
  put("qp.admm_iterations", totals.admm, "count");
  put("qp.mg_seeds", totals.mg_seeds, "count");
  put("qp.mg_rejects", totals.mg_rejects, "count");
  put("qp.mixed_fallbacks", totals.mixed_fallbacks, "count");
  put("qp.capped_solves", totals.capped, "count");
  put("doseplace.run_s", totals.dosepl_s, "s");
  put("doseplace.accept_ratio",
      totals.dosepl_rounds > 0 ? totals.dosepl_accepted / totals.dosepl_rounds
                               : 0.0,
      "ratio");
  put("variation.mc_dies_per_s", dies_per_s / ny, "1/s");
  put("ssta.analyze_s", ssta_s / ny, "s");
  put("ssta.err_p50", err50, "pts");
  put("ssta.err_p95", err95, "pts");
  put("ssta.err_p99", err99, "pts");
  put("common.dmopt_lane_speedup", dmopt_speedup, "x");
  put("common.mc_lane_speedup", mc_speedup / ny, "x");
  put("serde.journal_append_us", append_us, "us");
  put("serde.result_write_us", write_us, "us");
  put("serde.result_read_us", read_us, "us");
  put("serde.snapshot_write_ms", snap_write_ms, "ms");
  put("serde.snapshot_read_ms", snap_read_ms, "ms");
  put("serde.snapshot_mb", snap_mb, "MB");
  put("serve.memo_rtt_us", rr.memo_rtt_us, "us");
  put("serve.overhead_s", served_jobs > 0 ? serve_overhead / served_jobs : 0.0,
      "s");
  put("serve.retries", rr.served_retries, "count");
  put("fleet.route_us", rr.route_us, "us");
  put("campaign.replay_ms", replay_ms, "ms");
  put("campaign.overhead_s", campaign_overhead, "s");
  std::fprintf(stderr,
               "perfbench: traced layer sums cover %.3f of %.3f s served "
               "(%d jobs); campaign %.3f s of jobs in %.3f s wall\n",
               layer_s, served_s, served_jobs, campaign_job_s,
               campaign_wall_s);
  return m;
}

}  // namespace perfbench
