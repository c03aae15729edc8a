// Shared declarations of the repository benchmark (see README.md).
//
// A workload is one fixed mix of operations in three phases, all driven
// through the interfaces a user reaches:
//   A  paper-flow jobs (timing/leakage DMopt, dosePl, width modulation)
//      sent by one closed-loop serve::Client to an in-process serve::Server;
//   B  yield jobs (ssta_yield queries with and without the Monte-Carlo
//      cross-check, leakage jobs with a yield target) on the same server,
//      on sessions warmed during set-up;
//   C  a durable campaign (campaign::run_campaign) through an in-process
//      fleet::Supervisor + fleet::Router with two worker processes.
// The workloads differ in how much of each phase they carry.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "serve/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The designs of phases B and C; phase A names a design per job.
inline const std::vector<std::string> kDesigns = {"aes65", "aes90"};

/// One paper-flow job of phase A.
struct PaperJob {
  std::string design;
  std::string mode;  ///< "timing" (QCP) or "leakage" (QP)
  double grid_um = 10.0;
  bool dosepl = false;
  bool width = false;
};

struct WorkloadConfig {
  std::string name;
  // Phase A.  The first job listed for a design is that design's cold job
  // (its session is built by it); every later job of the design is warm.
  // The two slices of a round take alternate warm jobs in list order.
  double paper_scale = 1.0;
  std::vector<PaperJob> paper_jobs;
  // Phase B, on kDesigns; each design also gets one yield-target job.
  double yield_scale = 0.12;
  int mc_samples = 1000;  ///< cross-check and yield-target MC dies
  // Phase C.
  doseopt::campaign::CampaignSpec campaign;
};

/// The three workloads; `seed` only permutes submission order and names
/// the jobs, so every seed runs the same work (see README.md).
WorkloadConfig workload_config(const std::string& name);

/// One timed served job.
struct JobRecord {
  std::string phase;  ///< "cold", "warm", "ssta", "yield", "yield_target"
  doseopt::serve::JobSpec spec;
  double latency_s = 0.0;
  bool ok = false;
  doseopt::serve::Json result;  ///< reply "result" document when ok
};

/// Everything one round measured.
struct RoundResult {
  std::vector<double> setups_s;  ///< every set-up of the round
  std::vector<JobRecord> jobs;
  // Phase C, one campaign per slice.
  struct Campaign {
    doseopt::campaign::CampaignSpec spec;
    doseopt::campaign::CampaignReport report;
    std::string artifact;  ///< artifact JSON text; empty when it failed
  };
  std::vector<Campaign> campaigns;
  double campaign_mct_gain_pct = 0.0;
  double peak_rss_mb = 0.0;  ///< after the phases, before the checks
  // Accounting.
  int attempted = 0;
  int failed = 0;  ///< operations that errored or were rejected
  std::vector<std::string> errors;
  std::set<std::string> failed_ops;  ///< ops whose reply failed a check
  int capped_solves = 0;  ///< QP solves that ended at max_iterations
  int degraded = 0;       ///< results produced by a fallback ladder
  /// Failed properties across replies; any makes the run incorrect.
  std::vector<std::string> check_failures;
  // Traced-run extras (filled only with --trace 1).
  double memo_rtt_us = 0.0;
  double route_us = 0.0;
  double served_retries = 0.0;
};

struct RunOptions {
  std::string workdir;  ///< scratch root inside the checkout
  std::uint64_t seed = 1;
  bool trace = false;
};

/// Run one round of `cfg` through the served interfaces and check every
/// reply.  `round` keeps scratch directories of successive rounds apart.
RoundResult run_served_round(const WorkloadConfig& cfg,
                             const RunOptions& opts, int round);

/// Replay `round`'s inputs layer by layer (direct calls, one thread) and
/// return the per-layer metrics, each {"value", "unit"}.
doseopt::serve::Json run_traced(const WorkloadConfig& cfg,
                                const RunOptions& opts, RoundResult& round);

/// Child-process entry of the common.dmopt_lane_speedup probe: time one
/// DMopt job of the workload at the inherited DOSEOPT_THREADS width and
/// print the seconds.
int run_lane_probe(const WorkloadConfig& cfg);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

}  // namespace perfbench
