// Served round: set-up, phases A/B/C through the user-facing interfaces,
// then property checks of every reply (see perfbench.h, README.md).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "fleet/router.h"
#include "fleet/supervisor.h"
#include "flow/context.h"
#include "liberty/repository.h"
#include "perfbench.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

using doseopt::serve::Client;
using doseopt::serve::Json;
using doseopt::serve::JobSpec;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

namespace {

namespace fs = std::filesystem;

/// Set-ups before the first slice (all but the last are torn down again);
/// one more starts the second slice.  setup_s is their median.
constexpr int kSetups = 4;

/// Yield-target leakage jobs of phase B.
constexpr double kYieldTarget = 0.95;
constexpr double kYieldTargetGridUm = 10.0;

/// Deterministic Fisher-Yates shuffle driven by the workload seed.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  doseopt::Rng rng(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform_index(i)]);
  }
}

std::string server_bin() {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return "doseopt_server";
  return (self.parent_path() / "doseopt_server").string();
}

/// Server, client and fleet of one set-up.  Destruction order: client,
/// router, supervisor, server.
struct Stack {
  std::unique_ptr<doseopt::serve::Server> server;
  std::unique_ptr<Client> client;
  std::unique_ptr<doseopt::fleet::Supervisor> supervisor;
  std::unique_ptr<doseopt::fleet::Router> router;
  std::string router_socket;
  std::string result_store;
  /// Base ssta_yield result (tau = nominal, no MC) per yield design.
  std::map<std::string, Json> base;

  ~Stack() { stop(); }
  void stop() {
    client.reset();
    if (router) router->stop();
    if (supervisor) supervisor->stop();
    if (server) server->stop();
    router.reset();
    supervisor.reset();
    server.reset();
  }
};

JobSpec yield_spec(const WorkloadConfig& cfg, const std::string& design,
                   double tau, int mc) {
  JobSpec s;
  s.design = design;
  s.scale = cfg.yield_scale;
  s.mode = "ssta_yield";
  s.tau_ns = tau;
  s.mc_samples = mc;
  return s;
}

struct Submitted {
  bool ok = false;
  double latency_s = 0.0;
  Json result;
  std::string error;
};

Submitted submit(Client& client, const JobSpec& spec) {
  Submitted out;
  const auto t0 = Clock::now();
  try {
    const Client::Reply reply = client.submit(spec);
    out.latency_s = seconds_since(t0);
    out.ok = reply.ok();
    if (out.ok)
      out.result = reply.payload.get("result");
    else
      out.error = reply.payload.dump();
  } catch (const std::exception& e) {
    out.latency_s = seconds_since(t0);
    out.error = e.what();
  }
  return out;
}

/// Build one set-up: server, client, warmed yield sessions, fleet.
std::unique_ptr<Stack> set_up(const WorkloadConfig& cfg, const std::string& dir,
                              RoundResult& rr) {
  auto st = std::make_unique<Stack>();
  doseopt::serve::ServerOptions so;
  so.tcp_port = 0;
  so.lanes = 1;  // jobs run one at a time, serial-inline on this lane
  so.queue_capacity = 8;
  st->server = std::make_unique<doseopt::serve::Server>(so);
  st->server->start();
  st->client = std::make_unique<Client>(
      Client::connect_tcp_port(st->server->tcp_port()));
  for (const std::string& d : kDesigns) {
    ++rr.attempted;
    const Submitted s = submit(*st->client, yield_spec(cfg, d, 0.0, 0));
    if (!s.ok) {
      ++rr.failed;
      rr.errors.push_back("warm-up ssta_yield " + d + ": " + s.error);
      continue;
    }
    st->base[d] = s.result;
  }
  const std::string fleet_dir = dir + "/fleet";
  fs::create_directories(fleet_dir);
  doseopt::fleet::SupervisorOptions sup;
  sup.server_bin = server_bin();
  sup.runtime_dir = fleet_dir;
  sup.snapshot_dir = fleet_dir + "/snapshots";
  sup.result_store_dir = fleet_dir + "/results";
  sup.workers = 2;
  sup.lanes = 1;
  st->result_store = sup.result_store_dir;
  st->supervisor = std::make_unique<doseopt::fleet::Supervisor>(sup);
  st->supervisor->start();
  doseopt::fleet::RouterOptions ro;
  ro.uds_path = fleet_dir + "/router.sock";
  st->router_socket = ro.uds_path;
  st->router = std::make_unique<doseopt::fleet::Router>(ro, *st->supervisor);
  st->router->start();
  return st;
}

// ---------------------------------------------------------------- checks

/// Output checks.  A property of one reply that fails marks that operation
/// failed; a property across replies that fails makes the run incorrect.
struct Checker {
  RoundResult& rr;
  void fail(const std::string& what) { rr.check_failures.push_back(what); }
  void expect(bool cond, const std::string& what) {
    if (!cond) fail(what);
  }
  void expect_op(bool cond, const std::string& op, const std::string& what) {
    if (cond) return;
    rr.errors.push_back(op + ": " + what);
    if (rr.failed_ops.insert(op).second) ++rr.failed;
  }
};

/// Dose map within +-range and within delta between grid neighbours.
void check_map(Checker& ck, const std::string& op, const Json& map,
               double range, double delta, const std::string& who) {
  const auto rows = static_cast<std::size_t>(map.get_number("rows", 0));
  const auto cols = static_cast<std::size_t>(map.get_number("cols", 0));
  const auto& d = map.get("doses").items();
  if (d.size() != rows * cols || d.empty()) {
    ck.expect_op(false, op, who + " dose map shape");
    return;
  }
  constexpr double kTol = 1e-6;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = d[i * cols + j].as_number();
      if (std::fabs(v) > range + kTol) {
        ck.expect_op(false, op, who + " dose out of range");
        return;
      }
      if (j + 1 < cols &&
          std::fabs(v - d[i * cols + j + 1].as_number()) > delta + kTol) {
        ck.expect_op(false, op, who + " smoothness violated");
        return;
      }
      if (i + 1 < rows &&
          std::fabs(v - d[(i + 1) * cols + j].as_number()) > delta + kTol) {
        ck.expect_op(false, op, who + " smoothness violated");
        return;
      }
    }
  }
}

/// Local reference designs for the golden re-timing check.
class References {
 public:
  doseopt::flow::DesignContext& get(const JobSpec& spec) {
    auto& slot = contexts_[spec.session_key()];
    if (!slot)
      slot = std::make_unique<doseopt::flow::DesignContext>(spec.design_spec());
    return *slot;
  }

 private:
  std::map<std::uint64_t, std::unique_ptr<doseopt::flow::DesignContext>>
      contexts_;
};

/// Snap the reply's dose maps to library variants and re-time from scratch.
double golden_mct(doseopt::flow::DesignContext& ctx, const JobSpec& spec,
                  const Json& dm) {
  const auto to_map = [&](const Json& j) {
    doseopt::dose::DoseMap m(ctx.placement().die().width_um,
                             ctx.placement().die().height_um, spec.grid_um);
    std::vector<double> doses;
    for (const Json& v : j.get("doses").items()) doses.push_back(v.as_number());
    m.set_doses(std::move(doses));
    return m;
  };
  const doseopt::dose::DoseMap poly = to_map(dm.get("poly_map"));
  std::optional<doseopt::dose::DoseMap> active;
  if (dm.has("active_map")) active = to_map(dm.get("active_map"));
  const std::vector<std::size_t> grid =
      doseopt::dose::bin_cells(poly, ctx.placement());
  doseopt::sta::VariantAssignment va(ctx.netlist().cell_count());
  for (std::size_t c = 0; c < grid.size(); ++c) {
    va.set(static_cast<doseopt::netlist::CellId>(c),
           doseopt::liberty::dose_to_variant_index(poly.doses()[grid[c]]),
           doseopt::liberty::dose_to_variant_index(
               active ? active->doses()[grid[c]] : 0.0));
  }
  return ctx.timer().analyze(va).mct_ns;
}

/// Checks shared by every DMopt result document (served or campaign).
void check_flow_result(Checker& ck, References& refs, const JobSpec& spec,
                       const Json& r, const std::string& op) {
  const Json& dm = r.get("dmopt");
  check_map(ck, op, dm.get("poly_map"), spec.dose_range_pct,
            spec.smoothness_delta, "poly");
  if (dm.has("active_map"))
    check_map(ck, op, dm.get("active_map"), spec.dose_range_pct,
              spec.smoothness_delta, "active");
  // The QP/QCP constraints bind the DMopt stage; dosePl is checked on its
  // own below.
  const double nom_mct = r.get_number("nominal_mct_ns", 0);
  const double nom_leak = r.get_number("nominal_leakage_uw", 0);
  const double mct = dm.get_number("golden_mct_ns", 0);
  const double leak = dm.get_number("golden_leakage_uw", 0);
  if (!spec.run_dosepl) {
    const double g = golden_mct(refs.get(spec), spec, dm);
    ck.expect_op(g == dm.get_number("golden_mct_ns", -1), op,
                 "golden MCT re-timing differs from the reply");
  } else {
    ck.expect_op(r.get("dosepl").get_number("final_mct_ns", 1e9) <=
                     dm.get_number("golden_mct_ns", 0),
                 op, "dosePl raised MCT over DMopt");
  }
  if (spec.yield_target > 0.0) return;  // checked against MC instead
  if (spec.mode == "timing") {
    // QCP budget: no leakage increase (the solver probes with 1e-3 uW slack).
    ck.expect_op(leak <= nom_leak + 1e-3, op,
                 "QCP leakage " + std::to_string(leak) + " uW above nominal " +
                     std::to_string(nom_leak));
    ck.expect_op(mct <= nom_mct, op, "QCP MCT above nominal");
  } else {
    ck.expect_op(leak < nom_leak, op, "QP leakage not below nominal");
    ck.expect_op(mct <= nom_mct * 1.002, op,
                 "QP MCT " + std::to_string(mct) + " ns beyond 0.2% over " +
                     std::to_string(nom_mct));
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double pct_gain(double nominal, double value) {
  return (nominal - value) / nominal * 100.0;
}

}  // namespace

RoundResult run_served_round(const WorkloadConfig& cfg, const RunOptions& opts,
                             int round) {
  RoundResult rr;
  const std::string rdir = opts.workdir + "/r" + std::to_string(round);
  const std::uint64_t seed = opts.seed * 1000003ULL + round;

  // ---- set-up, several times; the last one serves the round.
  std::unique_ptr<Stack> st;
  for (int k = 0; k < kSetups; ++k) {
    if (st) st->stop();
    const auto t0 = Clock::now();
    st = set_up(cfg, rdir + "/s" + std::to_string(k), rr);
    rr.setups_s.push_back(seconds_since(t0));
  }
  const std::string tag = cfg.name + "-" + std::to_string(opts.seed);

  // ---- the plan: two slices, each on a freshly set-up server.  A slice
  // sends the cold jobs (every cold job runs twice a round), then half of
  // the warm jobs interleaved with half of the phase B queries and every
  // yield-target job in seed order, then runs the whole campaign.
  // Spreading every kind of operation over the whole round keeps each
  // metric from resting on one stretch of time.
  std::vector<JobSpec> cold, warm;
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < cfg.paper_jobs.size(); ++i) {
    const PaperJob& p = cfg.paper_jobs[i];
    JobSpec s;
    s.id = tag + "-a" + std::to_string(i);
    s.design = p.design;
    s.scale = cfg.paper_scale;
    s.mode = p.mode;
    s.grid_um = p.grid_um;
    s.run_dosepl = p.dosepl;
    s.modulate_width = p.width;
    if (std::find(seen.begin(), seen.end(), p.design) == seen.end()) {
      seen.push_back(p.design);
      cold.push_back(s);
    } else {
      warm.push_back(s);
    }
  }
  // Phase B: per yield design, SSTA and MC queries at the SSTA p50/p95/p99
  // clocks, an MC query at the nominal clock, and a yield-target job.  Like
  // the cold jobs, the few yield-target jobs run in both slices, so their
  // mean rests on four jobs a round.
  std::vector<std::pair<std::string, JobSpec>> bjobs;
  std::vector<JobSpec> targets;
  for (const std::string& d : kDesigns) {
    if (!st->base.count(d)) continue;
    const Json& ssta = st->base[d].get("ssta");
    for (const char* q : {"tau_p50_ns", "tau_p95_ns", "tau_p99_ns"}) {
      const double tau = ssta.get_number(q, 0);
      bjobs.emplace_back("ssta", yield_spec(cfg, d, tau, 0));
      bjobs.emplace_back("yield", yield_spec(cfg, d, tau, cfg.mc_samples));
    }
    bjobs.emplace_back("yield", yield_spec(cfg, d, 0.0, cfg.mc_samples));
    JobSpec yt;
    yt.design = d;
    yt.scale = cfg.yield_scale;
    yt.mode = "leakage";
    yt.grid_um = kYieldTargetGridUm;
    yt.yield_target = kYieldTarget;
    yt.mc_samples = cfg.mc_samples;
    yt.id = tag + "-t" + std::to_string(targets.size());
    targets.push_back(yt);
  }
  for (std::size_t i = 0; i < bjobs.size(); ++i)
    bjobs[i].second.id = tag + "-b" + std::to_string(i);

  constexpr std::size_t kSlices = 2;
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    if (slice > 0) {
      st->stop();
      const auto t0 = Clock::now();
      st = set_up(cfg, rdir + "/s" + std::to_string(kSetups + slice - 1), rr);
      rr.setups_s.push_back(seconds_since(t0));
    }
    std::vector<std::pair<std::string, JobSpec>> plan, mixed;
    for (JobSpec s : cold) {
      s.id += "-" + std::to_string(slice);
      plan.emplace_back("cold", s);
    }
    // Slices take alternate jobs in list order, so every seed gives each
    // slice the same jobs; the seed only orders them.
    for (std::size_t i = slice; i < warm.size(); i += kSlices)
      mixed.emplace_back("warm", warm[i]);
    for (std::size_t i = slice; i < bjobs.size(); i += kSlices)
      mixed.push_back(bjobs[i]);
    for (JobSpec s : targets) {
      s.id += "-" + std::to_string(slice);
      mixed.emplace_back("yield_target", s);
    }
    shuffle(mixed, seed + slice);
    plan.insert(plan.end(), mixed.begin(), mixed.end());
    for (const auto& [phase, spec] : plan) {
      ++rr.attempted;
      Submitted s = submit(*st->client, spec);
      JobRecord rec{phase, spec, s.latency_s, s.ok, std::move(s.result)};
      if (!rec.ok) {
        ++rr.failed;
        rr.errors.push_back(phase + " job " + spec.id + ": " + s.error);
      }
      rr.jobs.push_back(std::move(rec));
    }

    // Phase C: the whole campaign, durably through this slice's fleet, then
    // a resume of its finished journal, which must run nothing and seal the
    // same artifact.
    RoundResult::Campaign part;
    part.spec = cfg.campaign;
    part.spec.name = tag + "-c" + std::to_string(slice);
    doseopt::campaign::CampaignOptions co;
    co.journal_dir = rdir + "/journal" + std::to_string(slice);
    co.artifact_path = co.journal_dir + ".json";
    co.result_store_dir = st->result_store;
    co.exec = doseopt::campaign::ExecMode::kServed;
    co.socket = st->router_socket;
    co.clients = 2;
    const int cjobs =
        static_cast<int>(doseopt::campaign::expand_campaign(part.spec).size());
    rr.attempted += cjobs + 1;  // the jobs and the resume
    try {
      part.report = doseopt::campaign::run_campaign(part.spec, co);
      std::ifstream is(co.artifact_path);
      std::stringstream ss;
      ss << is.rdbuf();
      part.artifact = ss.str();
      co.resume = true;
      const auto again = doseopt::campaign::run_campaign(part.spec, co);
      if (again.executed != 0 || !again.completed ||
          again.artifact_fnv != part.report.artifact_fnv) {
        ++rr.failed;
        rr.errors.push_back(part.spec.name + ": resume ran jobs or changed FNV");
      }
    } catch (const std::exception& e) {
      rr.failed += part.artifact.empty() ? cjobs + 1 : 1;
      rr.errors.push_back(part.spec.name + ": " + e.what());
    }
    rr.campaigns.push_back(std::move(part));
  }

  if (opts.trace) {
    // Round trip of a memoized job: the server answers from its result
    // memo without solving.
    const JobSpec& memo = rr.jobs.back().spec;
    std::vector<double> rtt;
    for (int k = 0; k < 20; ++k) {
      const Submitted s = submit(*st->client, memo);
      if (s.ok) rtt.push_back(s.latency_s * 1e6);
    }
    rr.memo_rtt_us = median(rtt);
    rr.served_retries =
        st->server->metrics().get("jobs").get_number("retried", 0);
    // Router cost: the same memoized job through the router and straight
    // to each worker's socket.
    if (!rr.campaigns.empty()) {
      const JobSpec job =
          doseopt::campaign::expand_campaign(rr.campaigns.back().spec)
              .front()
              .spec;
      Client via = Client::connect_unix_path(st->router_socket);
      std::vector<Client> direct;
      for (int w = 0; w < st->supervisor->workers(); ++w)
        direct.push_back(
            Client::connect_unix_path(st->supervisor->worker_socket(w)));
      for (Client& c : direct) submit(c, job);  // promote into each memo
      submit(via, job);
      std::vector<double> routed, straight;
      for (int k = 0; k < 20; ++k) {
        routed.push_back(submit(via, job).latency_s * 1e6);
        for (Client& c : direct)
          straight.push_back(submit(c, job).latency_s * 1e6);
      }
      rr.route_us = median(routed) - median(straight);
    }
  }
  st->stop();
  rr.peak_rss_mb = peak_rss_mb();

  // ---- checks (untimed).
  Checker ck{rr};
  References refs;
  std::map<std::string, std::map<double, double>> qp_gain;  // design/grid
  for (const JobRecord& j : rr.jobs) {
    if (!j.ok) continue;
    const Json& r = j.result;
    if (j.phase == "cold" || j.phase == "warm" || j.phase == "yield_target") {
      check_flow_result(ck, refs, j.spec, r, j.spec.id);
      const Json& dm = r.get("dmopt");
      if (dm.get_string("solver_status", "") == "max_iterations")
        ++rr.capped_solves;
      if (dm.get("recovery").get_bool("degraded", false)) ++rr.degraded;
      if (j.spec.mode == "leakage" && !j.spec.modulate_width &&
          !j.spec.run_dosepl && j.spec.yield_target == 0.0)
        qp_gain[j.spec.design][j.spec.grid_um] =
            pct_gain(r.get_number("nominal_leakage_uw", 0),
                     r.get_number("final_leakage_uw", 0));
      if (j.phase == "yield_target") {
        const Json& y = dm.get("yield");
        ck.expect_op(y.get_number("mc_yield", 0) >= kYieldTarget ||
                         dm.get("recovery").get_bool("degraded", false),
                     j.spec.id, "yield target missed and not flagged");
      }
    }
  }
  // QP leakage gain does not shrink as the grid gets finer.
  for (const auto& [design, by_grid] : qp_gain) {
    double finer_gain = 1e300;  // walk from the finest grid up
    for (const auto& [grid, gain] : by_grid) {
      ck.expect(gain <= finer_gain + 1e-12,
                design + ": QP leakage gain shrinks on a finer grid");
      finer_gain = gain;
    }
  }
  // SSTA-only fields equal the cross-checked query's; MC yield monotone.
  for (const std::string& d : kDesigns) {
    std::map<double, Json> ssta_only, crossed;
    for (const JobRecord& j : rr.jobs) {
      if (!j.ok || j.spec.design != d || j.spec.mode != "ssta_yield") continue;
      if (j.phase == "ssta") ssta_only[j.result.get_number("tau_ns", 0)] = j.result;
      if (j.phase == "yield") crossed[j.result.get_number("tau_ns", 0)] = j.result;
    }
    for (const auto& [tau, r] : ssta_only) {
      const auto it = crossed.find(tau);
      ck.expect(it != crossed.end() &&
                    it->second.get("ssta").dump() == r.get("ssta").dump(),
                d + ": SSTA-only yield differs from the cross-checked one");
    }
    double last = -1.0;
    for (const auto& [tau, r] : crossed) {
      const double y = r.get("mc").get_number("yield", -1);
      ck.expect(y >= last, d + ": MC yield falls as the clock rises");
      last = y;
    }
  }
  // Campaign: every job committed, every committed document passes the
  // DMopt checks.
  double gain = 0.0;
  int designs = 0;
  for (const RoundResult::Campaign& c : rr.campaigns) {
    if (c.artifact.empty()) continue;
    const auto jobs = doseopt::campaign::expand_campaign(c.spec);
    ck.expect(c.report.completed &&
                  c.report.executed == static_cast<int>(jobs.size()),
              c.spec.name + " did not commit every job");
    const Json art = Json::parse(c.artifact);
    const auto& results = art.get("results").items();
    ck.expect(results.size() == jobs.size(), c.spec.name + " artifact size");
    for (std::size_t i = 0; i < results.size() && i < jobs.size(); ++i)
      check_flow_result(ck, refs, jobs[i].spec, results[i].get("result"),
                        jobs[i].id);
    for (const std::string& d : c.spec.designs) {
      const Json& dj = art.get("designs").get(d);
      gain += pct_gain(dj.get_number("wafer_mean_nominal_mct_ns", 0),
                       dj.get_number("wafer_mean_final_mct_ns", 0));
      ++designs;
    }
  }
  rr.campaign_mct_gain_pct = designs > 0 ? gain / designs : 0.0;
  return rr;
}

}  // namespace perfbench
