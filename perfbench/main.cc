// Repository benchmark entry point.
//
//   perfbench --workload <paper_sweep|yield_signoff|wafer_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Runs whole rounds of the workload's fixed operation mix until `seconds`
// have passed (at least one round), checks every output, and prints one
// JSON line: {"correct", "attempted", "failed", "metrics"}.  With --trace 1
// it runs one round and then replays its inputs layer by layer.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "perfbench.h"

namespace perfbench {

using doseopt::serve::Json;

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  // Light phase defaults, shared by the workloads that do not focus on
  // the phase.  Light phase A is the paper sweep's job kinds on designs
  // scaled to 12 %, the repository's smoke scale (DOSEOPT_FAST).
  c.paper_scale = 0.12;
  c.paper_jobs = {
      {"aes65", "timing", 10.0},  {"aes90", "timing", 10.0},
      {"aes65", "timing", 30.0},  {"aes90", "timing", 30.0},
      {"aes65", "leakage", 30.0}, {"aes90", "leakage", 30.0},
      {"aes65", "leakage", 10.0}, {"aes90", "leakage", 10.0},
      {"aes65", "timing", 10.0, true}, {"aes90", "timing", 10.0, true},
  };
  c.yield_scale = 0.03;
  c.mc_samples = 400;
  c.campaign.designs = kDesigns;
  c.campaign.scale = 0.03;
  c.campaign.rounds = 3;
  c.campaign.max_classes = 2;

  if (name == "paper_sweep") {
    // Tables IV-VI on the full-size designs: QCP and QP at 5/10/30 um,
    // dosePl after QCP, poly+active (width) modulation.
    c.paper_scale = 1.0;
    c.paper_jobs = {
        {"aes65", "timing", 10.0},  {"aes90", "timing", 10.0},
        {"aes65", "leakage", 5.0},  {"aes90", "leakage", 5.0},
        {"aes65", "timing", 30.0, false, true},
        {"aes90", "timing", 30.0, false, true},
        {"aes90", "leakage", 30.0}, {"aes65", "leakage", 30.0},
        {"aes90", "timing", 30.0},  {"aes65", "timing", 30.0},
        {"aes90", "timing", 30.0, true},
        {"aes65", "timing", 10.0, true},
        {"aes65", "leakage", 10.0}, {"aes90", "leakage", 10.0},
    };
  } else if (name == "yield_signoff") {
    c.yield_scale = 0.06;
    c.mc_samples = 2000;
  } else if (name == "wafer_campaign") {
    c.campaign.scale = 0.05;
    c.campaign.rounds = 4;
    c.campaign.max_classes = 4;
  } else {
    c.name.clear();
  }
  return c;
}

namespace {

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", Json::number(value));
  m.set("unit", Json::string(unit));
  return m;
}

std::vector<double> latencies(const std::vector<RoundResult>& rounds,
                              const std::string& phase) {
  std::vector<double> v;
  for (const RoundResult& r : rounds)
    for (const JobRecord& j : r.jobs)
      if (j.ok && j.phase == phase) v.push_back(j.latency_s);
  return v;
}

/// Mean percent gain of the paper-flow jobs of one DMopt mode.
double paper_gain(const std::vector<RoundResult>& rounds,
                  const std::string& mode, const char* nominal,
                  const char* final_value) {
  std::vector<double> g;
  for (const RoundResult& r : rounds)
    for (const JobRecord& j : r.jobs)
      if (j.ok && (j.phase == "cold" || j.phase == "warm") &&
          j.spec.mode == mode) {
        const double n = j.result.get_number(nominal, 0);
        g.push_back((n - j.result.get_number(final_value, 0)) / n * 100.0);
      }
  return mean(g);
}

Json end_to_end(const WorkloadConfig& cfg,
                const std::vector<RoundResult>& rounds) {
  std::vector<double> setups, campaign_gain;
  double campaign_jobs = 0.0, campaign_wall = 0.0;
  std::vector<double> yield_gain;
  double ssta_err = 0.0;
  for (const RoundResult& r : rounds) {
    setups.insert(setups.end(), r.setups_s.begin(), r.setups_s.end());
    for (const RoundResult::Campaign& c : r.campaigns) {
      campaign_jobs += c.report.executed;
      campaign_wall += c.report.wall_s;
    }
    campaign_gain.push_back(r.campaign_mct_gain_pct);
    // Nominal-design MC yield per (design, clock), for the yield gain.
    std::map<std::pair<std::string, double>, double> nominal_mc;
    for (const JobRecord& j : r.jobs)
      if (j.ok && j.phase == "yield")
        nominal_mc[{j.spec.design, j.result.get_number("tau_ns", 0)}] =
            j.result.get("mc").get_number("yield", 0);
    for (const JobRecord& j : r.jobs) {
      if (!j.ok) continue;
      if (j.phase == "yield" && j.spec.tau_ns > 0.0)  // p50/p95/p99 clocks
        ssta_err = std::max(ssta_err,
                            j.result.get_number("yield_abs_error", 0) * 100.0);
      if (j.phase == "yield_target") {
        const Json& y = j.result.get("dmopt").get("yield");
        const auto it =
            nominal_mc.find({j.spec.design, y.get_number("tau_ns", 0)});
        if (it != nominal_mc.end())
          yield_gain.push_back((y.get_number("mc_yield", 0) - it->second) *
                               100.0);
      }
    }
  }
  const bool campaign_gain_only = cfg.name == "wafer_campaign";
  Json m = Json::object();
  m.set("setup_s", metric(median(setups), "s"));
  // Read before the first round's checks: later readings would include
  // the checker's reference designs.
  m.set("peak_rss_mb", metric(rounds.front().peak_rss_mb, "MB"));
  m.set("cold_job_s", metric(mean(latencies(rounds, "cold")), "s"));
  m.set("warm_job_s", metric(mean(latencies(rounds, "warm")), "s"));
  m.set("mct_gain_pct",
        metric(campaign_gain_only
                   ? mean(campaign_gain)
                   : paper_gain(rounds, "timing", "nominal_mct_ns",
                                "final_mct_ns"),
               "%"));
  m.set("leakage_gain_pct",
        metric(paper_gain(rounds, "leakage", "nominal_leakage_uw",
                          "final_leakage_uw"),
               "%"));
  m.set("ssta_query_s", metric(mean(latencies(rounds, "ssta")), "s"));
  m.set("yield_query_s", metric(mean(latencies(rounds, "yield")), "s"));
  m.set("yield_target_job_s",
        metric(mean(latencies(rounds, "yield_target")), "s"));
  m.set("yield_gain_pts", metric(mean(yield_gain), "pts"));
  m.set("ssta_yield_err", metric(ssta_err, "pts"));
  m.set("campaign_jobs_per_s",
        metric(campaign_wall > 0.0 ? campaign_jobs / campaign_wall : 0.0,
               "1/s"));
  return m;
}

/// Per-operation timings of one round, on stderr.
void report_round(const RoundResult& r) {
  for (const JobRecord& j : r.jobs) {
    const char* variant = j.spec.run_dosepl      ? "dosepl"
                          : j.spec.modulate_width ? "width"
                                                  : "";
    std::fprintf(stderr, "perfbench: %-12s %-26s %-6s %-10s %4.0f %-6s %8.3f s\n",
                 j.phase.c_str(), j.spec.id.c_str(), j.spec.design.c_str(),
                 j.spec.mode.c_str(), j.spec.grid_um, variant, j.latency_s);
  }
  std::string setups;
  for (const double s : r.setups_s) setups += " " + std::to_string(s);
  std::fprintf(stderr, "perfbench: setups%s\n", setups.c_str());
  for (const RoundResult::Campaign& c : r.campaigns)
    std::fprintf(stderr, "perfbench: campaign %s: %d jobs in %.3f s\n",
                 c.spec.name.c_str(), c.report.executed, c.report.wall_s);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_sweep|yield_signoff|wafer_campaign> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opts;
  double seconds = 10.0;
  bool lane_probe = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i];
    const std::string v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") seconds = std::atof(v.c_str());
    else if (a == "--trace") opts.trace = v == "1";
    else if (a == "--lane-probe") lane_probe = v == "1";
    else return usage(("unknown argument " + a).c_str());
  }
  const WorkloadConfig cfg = workload_config(workload);
  if (cfg.name.empty()) return usage("unknown workload");

  if (lane_probe) return run_lane_probe(cfg);

  // The process-wide pool width is set here, not inherited, and fleet
  // workers inherit it.  Served jobs run serial-inline on one server lane,
  // but the sparse kernels still pick their code path from the global
  // width, so one lane keeps every served time off the multi-lane pool.
  setenv("DOSEOPT_THREADS", "1", 1);

  // Standard output carries only the result line: fleet workers inherit
  // our descriptors, so point fd 1 at stderr and keep the original for the
  // result.
  std::fflush(stdout);
  const int result_fd = dup(STDOUT_FILENO);
  dup2(STDERR_FILENO, STDOUT_FILENO);

  opts.workdir = ".bench_run/" + workload + "-" + std::to_string(getpid());
  std::filesystem::remove_all(opts.workdir);
  std::filesystem::create_directories(opts.workdir);

  std::vector<RoundResult> rounds;
  Json metrics;
  try {
    const auto t0 = Clock::now();
    do {
      rounds.push_back(
          run_served_round(cfg, opts, static_cast<int>(rounds.size())));
    } while (!opts.trace && seconds_since(t0) < seconds);
    metrics = opts.trace ? run_traced(cfg, opts, rounds.front())
                         : end_to_end(cfg, rounds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(opts.workdir);
    return 1;
  }
  std::filesystem::remove_all(opts.workdir);

  int attempted = 0, failed = 0, capped = 0, degraded = 0;
  bool correct = true;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    capped += r.capped_solves;
    degraded += r.degraded;
    correct = correct && r.check_failures.empty();
    report_round(r);
    for (const std::string& e : r.errors)
      std::fprintf(stderr, "perfbench: FAILED %s\n", e.c_str());
    for (const std::string& e : r.check_failures)
      std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", e.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s rounds=%zu attempted=%d failed=%d "
               "capped_solves=%d degraded=%d\n",
               workload.c_str(), rounds.size(), attempted, failed, capped,
               degraded);
  Json out = Json::object();
  out.set("correct", Json::boolean(correct));
  out.set("attempted", Json::number(attempted));
  out.set("failed", Json::number(failed));
  out.set("metrics", std::move(metrics));
  const std::string line = out.dump() + "\n";
  std::fflush(stdout);
  if (write(result_fd, line.data(), line.size()) !=
      static_cast<ssize_t>(line.size()))
    return 1;
  return 0;
}
