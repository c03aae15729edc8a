#include "campaign/campaign.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "flow/optimize.h"
#include "flow/ssta_yield.h"
#include "serde/durable.h"
#include "serde/result_store.h"
#include "serde/stream.h"
#include "serve/cache.h"
#include "serve/client.h"

namespace doseopt::campaign {

using serve::Json;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hex64(std::uint64_t v) {
  return str_format("%016llx", static_cast<unsigned long long>(v));
}

}  // namespace

std::uint64_t CampaignSpec::spec_hash() const {
  serde::ByteWriter w;
  w.put_string(name);
  w.put_u32(static_cast<std::uint32_t>(designs.size()));
  for (const std::string& d : designs) w.put_string(d);
  w.put_f64(scale);
  w.put_u64(seed);
  w.put_f64(wafer.wafer_radius_mm);
  w.put_f64(wafer.field_size_mm);
  w.put_f64(wafer.edge_exclusion_mm);
  w.put_f64(wafer.bowl2_nm);
  w.put_f64(wafer.bowl4_nm);
  w.put_f64(wafer.field_random_sigma_nm);
  w.put_f64(wafer.max_field_dose_pct);
  w.put_u64(wafer.seed);
  w.put_i32(rounds);
  w.put_f64(grid_um);
  w.put_f64(smoothness_delta);
  w.put_f64(dose_range_pct);
  w.put_i32(max_classes);
  return serde::fnv1a64(w.bytes().data(), w.bytes().size());
}

std::vector<DoseClass> dose_classes(const CampaignSpec& spec) {
  wafer::Wafer w(spec.wafer);
  // Manufacturing applies its per-field AWLV correction first; whatever
  // dose swing the correction consumed is no longer available to the
  // intra-field design map of that field.
  w.apply_awlv_correction();
  std::map<long, int> counts;  // quantized range (0.25 % steps) -> fields
  for (const wafer::Field& f : w.fields()) {
    const double effective =
        std::max(1.0, spec.dose_range_pct - std::fabs(f.dose_corr_pct));
    counts[std::lround(effective / 0.25)]++;
  }
  std::vector<DoseClass> classes;
  classes.reserve(counts.size());
  for (const auto& [q, fields] : counts)
    classes.push_back({static_cast<double>(q) * 0.25, fields});
  // Merge down to max_classes: fold the least-populated class into the
  // range-nearest neighbor (ties: lowest index, left neighbor).  Purely a
  // function of the spec, so expansion stays deterministic.
  const std::size_t cap =
      static_cast<std::size_t>(std::max(1, spec.max_classes));
  while (classes.size() > cap) {
    std::size_t victim = 0;
    for (std::size_t i = 1; i < classes.size(); ++i)
      if (classes[i].fields < classes[victim].fields) victim = i;
    std::size_t heir;
    if (victim == 0) {
      heir = 1;
    } else if (victim + 1 == classes.size()) {
      heir = victim - 1;
    } else {
      const double left = classes[victim].range_pct -
                          classes[victim - 1].range_pct;
      const double right = classes[victim + 1].range_pct -
                           classes[victim].range_pct;
      heir = left <= right ? victim - 1 : victim + 1;
    }
    classes[heir].fields += classes[victim].fields;
    classes.erase(classes.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  return classes;
}

std::vector<CampaignJob> expand_campaign(const CampaignSpec& spec) {
  DOSEOPT_CHECK(spec.rounds >= 1, "campaign: need at least one round");
  DOSEOPT_CHECK(!spec.designs.empty(), "campaign: need at least one design");
  const std::vector<DoseClass> classes = dose_classes(spec);
  std::vector<CampaignJob> jobs;
  jobs.reserve(spec.designs.size() * static_cast<std::size_t>(spec.rounds) *
               classes.size());
  for (const std::string& design : spec.designs) {
    for (int r = 0; r < spec.rounds; ++r) {
      for (std::size_t c = 0; c < classes.size(); ++c) {
        CampaignJob job;
        job.round = r;
        job.dose_class = static_cast<int>(c);
        job.fields = classes[c].fields;
        job.id = spec.name + "-" + design + "-r" + std::to_string(r) + "-c" +
                 std::to_string(c);
        serve::JobSpec& js = job.spec;
        js.id = job.id;
        js.design = design;
        js.scale = spec.scale;
        js.seed = spec.seed;  // same seed per design -> rounds share sessions
        js.mode = "timing";
        js.smoothness_delta = spec.smoothness_delta;
        js.dose_range_pct = classes[c].range_pct;
        // Round 0 is the pure DMopt solve at the campaign grid; later
        // rounds turn dosePl on and coarsen the grid one step per round,
        // walking the DMopt<->dosePl fixed point.
        js.run_dosepl = r >= 1;
        js.grid_um = r == 0 ? spec.grid_um
                            : spec.grid_um + 2.0 * static_cast<double>(r - 1);
        js.deadline_ms = spec.deadline_ms;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

std::string encode_begin(std::uint64_t spec_hash, std::uint32_t total,
                         const std::string& name) {
  serde::ByteWriter w;
  w.put_u64(spec_hash);
  w.put_u32(total);
  w.put_string(name);
  return w.take();
}

std::string encode_intent(std::uint32_t index, std::uint64_t job_key) {
  serde::ByteWriter w;
  w.put_u32(index);
  w.put_u64(job_key);
  return w.take();
}

std::string encode_commit(std::uint32_t index, std::uint64_t job_key,
                          std::uint64_t norm_fnv) {
  serde::ByteWriter w;
  w.put_u32(index);
  w.put_u64(job_key);
  w.put_u64(norm_fnv);
  return w.take();
}

std::string encode_end(std::uint64_t artifact_fnv) {
  serde::ByteWriter w;
  w.put_u64(artifact_fnv);
  return w.take();
}

BeginRec decode_begin(const std::string& payload) {
  serde::ByteReader r(payload);
  BeginRec rec;
  rec.spec_hash = r.get_u64();
  rec.total = r.get_u32();
  rec.name = r.get_string();
  return rec;
}

std::pair<std::uint32_t, std::uint64_t> decode_intent(
    const std::string& payload) {
  serde::ByteReader r(payload);
  const std::uint32_t index = r.get_u32();
  const std::uint64_t key = r.get_u64();
  return {index, key};
}

CommitRec decode_commit(const std::string& payload) {
  serde::ByteReader r(payload);
  CommitRec rec;
  rec.index = r.get_u32();
  rec.job_key = r.get_u64();
  rec.norm_fnv = r.get_u64();
  return rec;
}

std::uint64_t decode_end(const std::string& payload) {
  serde::ByteReader r(payload);
  return r.get_u64();
}

int JournalState::in_flight() const {
  int n = 0;
  for (const std::uint32_t i : intents)
    if (committed.find(i) == committed.end()) ++n;
  return n;
}

JournalState scan_journal(const serde::JournalReplay& replay) {
  JournalState state;
  for (const serde::JournalRecord& rec : replay.records) {
    switch (static_cast<Rec>(rec.type)) {
      case Rec::kBegin: {
        const BeginRec begin = decode_begin(rec.payload);
        if (state.has_begin &&
            (begin.spec_hash != state.begin.spec_hash ||
             begin.total != state.begin.total))
          throw Error("campaign: journal holds two different Begin records");
        state.begin = begin;
        state.has_begin = true;
        break;
      }
      case Rec::kIntent:
        state.intents.insert(decode_intent(rec.payload).first);
        break;
      case Rec::kCommit: {
        const CommitRec commit = decode_commit(rec.payload);
        const auto it = state.committed.find(commit.index);
        if (it != state.committed.end() &&
            it->second.norm_fnv != commit.norm_fnv)
          throw Error("campaign: conflicting Commit records for job " +
                      std::to_string(commit.index));
        state.committed[commit.index] = commit;
        break;
      }
      case Rec::kEnd:
        state.ended = true;
        state.artifact_fnv = decode_end(rec.payload);
        break;
      default:
        throw Error("campaign: unknown journal record type " +
                    std::to_string(rec.type));
    }
  }
  return state;
}

Json CampaignReport::to_json() const {
  Json j = Json::object();
  j.set("jobs_total", Json::number(jobs_total));
  j.set("committed_prior", Json::number(committed_prior));
  j.set("executed", Json::number(executed));
  j.set("store_hits", Json::number(store_hits));
  j.set("store_misses", Json::number(store_misses));
  j.set("resubmitted_inflight", Json::number(resubmitted_inflight));
  j.set("journal_recoveries", Json::number(journal_recoveries));
  j.set("completed", Json::boolean(completed));
  j.set("artifact_fnv", Json::string(hex64(artifact_fnv)));
  j.set("wall_s", Json::number(wall_s));
  j.set("resume_replay_ms", Json::number(resume_replay_ms));
  return j;
}

namespace {

/// In-process executor: a private SessionCache plus the shared result
/// store.  Mirrors the worker's job loop, including the dosePl
/// save/restore that keeps a session pristine across rounds.
class LocalExecutor {
 public:
  LocalExecutor(std::string snapshot_dir, std::string result_store_dir)
      : cache_(std::move(snapshot_dir), std::move(result_store_dir)) {}

  std::string run(const serve::JobSpec& spec) {
    const std::uint64_t key = spec.job_key();
    if (auto cached = cache_.lookup_result(key)) return *cached;
    auto session = cache_.acquire(spec);
    std::lock_guard<std::mutex> lock(session->mu);
    cache_.populate(*session, spec, nullptr);
    flow::DesignContext& ctx = *session->ctx;
    ctx.coefficients(spec.modulate_width);
    Json result_json;
    if (spec.mode == "ssta_yield") {
      result_json = serve::ssta_yield_result_to_json(
          flow::run_ssta_yield(ctx, spec.ssta_options()));
    } else {
      // dosePl mutates placement + parasitics in place; save/restore so
      // the cached session answers later rounds from a pristine state.
      std::optional<place::Placement> saved_placement;
      std::optional<extract::Parasitics> saved_parasitics;
      if (spec.run_dosepl) {
        saved_placement = ctx.placement();
        saved_parasitics = ctx.parasitics();
      }
      flow::FlowResult result;
      try {
        result = flow::run_flow(ctx, spec.flow_options());
      } catch (...) {
        if (saved_placement.has_value()) {
          ctx.placement() = std::move(*saved_placement);
          ctx.parasitics() = std::move(*saved_parasitics);
        }
        throw;
      }
      if (saved_placement.has_value()) {
        ctx.placement() = std::move(*saved_placement);
        ctx.parasitics() = std::move(*saved_parasitics);
      }
      result_json = serve::flow_result_to_json(result);
    }
    std::string doc = result_json.dump();
    // Publish the full raw document under the job key -- exactly the bytes
    // a fleet worker would publish, so local and served campaigns share
    // one store without violating its identical-bytes rule.
    cache_.store_result(key, doc);
    return doc;
  }

 private:
  serve::SessionCache cache_;
};

/// Fleet executor: one serve::Client per submitter thread.
class ServedExecutor {
 public:
  ServedExecutor(std::string socket, int tcp_port)
      : socket_(std::move(socket)), tcp_port_(tcp_port) {}

  std::string run(const serve::JobSpec& spec) {
    serve::ClientOptions copts;
    copts.connect_timeout_ms = 2000;
    serve::Client client =
        socket_.empty() ? serve::Client::connect_tcp_port(tcp_port_, copts)
                        : serve::Client::connect_unix_path(socket_, copts);
    serve::RetryPolicy policy;
    policy.max_attempts = 200;  // rides out respawns and backpressure
    const serve::Client::Reply reply = client.submit_with_retry(spec, policy);
    if (reply.type != serve::MsgType::kJobResult)
      throw Error("campaign: job '" + spec.id + "' failed: " +
                  reply.payload.get_string("error", "rejected"));
    return reply.payload.get("result").dump();
  }

 private:
  std::string socket_;
  int tcp_port_;
};

}  // namespace

CampaignReport run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& opts) {
  DOSEOPT_CHECK(!opts.journal_dir.empty(), "campaign: need a journal_dir");
  DOSEOPT_CHECK(!opts.result_store_dir.empty(),
                "campaign: need a result_store_dir");
  const auto t_start = std::chrono::steady_clock::now();
  CampaignReport report;

  const std::vector<CampaignJob> jobs = expand_campaign(spec);
  const auto total = static_cast<std::uint32_t>(jobs.size());
  report.jobs_total = static_cast<int>(total);
  const std::uint64_t spec_hash = spec.spec_hash();

  // ---- Recover: replay the journal and distill the campaign state.
  const auto t_replay = std::chrono::steady_clock::now();
  const serde::JournalReplay replay = serde::replay_journal(opts.journal_dir);
  const JournalState state = scan_journal(replay);
  report.resume_replay_ms = ms_since(t_replay);
  if (!replay.records.empty() && !opts.resume)
    throw Error("campaign: journal " + opts.journal_dir +
                " already holds records; pass resume to continue it");
  if (state.has_begin &&
      (state.begin.spec_hash != spec_hash || state.begin.total != total))
    throw Error("campaign: journal " + opts.journal_dir +
                " was written by a different campaign spec (hash " +
                hex64(state.begin.spec_hash) + " != " + hex64(spec_hash) +
                " or total " + std::to_string(state.begin.total) +
                " != " + std::to_string(total) + ")");
  report.committed_prior = static_cast<int>(state.committed.size());
  report.resubmitted_inflight = state.in_flight();
  if (opts.verbose && !replay.records.empty())
    std::fprintf(stderr,
                 "[campaign] resume: %zu records, %d committed, %d in "
                 "flight%s\n",
                 replay.records.size(), report.committed_prior,
                 report.resubmitted_inflight,
                 replay.torn_tail ? " (torn tail truncated)" : "");

  // ---- Journal writer with a torn-append recovery ladder: an injected
  // campaign.journal_torn poisons the writer; reconstructing it truncates
  // the garbage tail, after which the append is retried.  Bounded so a
  // persistent I/O failure still surfaces.
  auto writer = std::make_unique<serde::JournalWriter>(opts.journal_dir);
  std::mutex journal_mu;
  std::atomic<int> recoveries{0};
  const auto append = [&](Rec type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(journal_mu);
    for (int attempt = 0;; ++attempt) {
      try {
        writer->append(static_cast<std::uint32_t>(type), payload);
        return;
      } catch (const std::exception& e) {
        if (attempt >= 3) throw;
        recoveries.fetch_add(1, std::memory_order_relaxed);
        if (opts.verbose)
          std::fprintf(stderr, "[campaign] journal append recovered: %s\n",
                       e.what());
        writer = std::make_unique<serde::JournalWriter>(opts.journal_dir);
      }
    }
  };
  if (!state.has_begin)
    append(Rec::kBegin, encode_begin(spec_hash, total, spec.name));

  // ---- Executors.
  std::unique_ptr<LocalExecutor> local;
  std::unique_ptr<ServedExecutor> served;
  if (opts.exec == ExecMode::kLocal)
    local = std::make_unique<LocalExecutor>(opts.snapshot_dir,
                                            opts.result_store_dir);
  else
    served = std::make_unique<ServedExecutor>(opts.socket, opts.tcp_port);
  const auto execute = [&](const serve::JobSpec& js) {
    return local != nullptr ? local->run(js) : served->run(js);
  };

  // ---- Process every job.  Committed jobs answer from the store
  // (hash-verified); the rest run under Intent/Commit bracketing.
  std::vector<std::string> norm_docs(jobs.size());
  std::atomic<int> executed{0}, store_hits{0}, store_misses{0};
  std::atomic<int> intents_appended{0}, commits_appended{0};
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto process = [&](std::size_t i) {
    const CampaignJob& job = jobs[i];
    const std::uint64_t key = job.spec.job_key();
    const auto committed = state.committed.find(static_cast<std::uint32_t>(i));
    if (committed != state.committed.end()) {
      if (committed->second.job_key != key)
        throw Error("campaign: job " + std::to_string(i) +
                    " key mismatch against the journal (expansion drift?)");
      // Fast path: the store still holds the document this commit sealed.
      std::optional<std::string> doc;
      try {
        doc = serde::read_result(opts.result_store_dir, key);
      } catch (const std::exception&) {
        serde::quarantine_result(opts.result_store_dir, key);
      }
      if (doc.has_value()) {
        const std::string norm =
            serve::normalized_result(Json::parse(*doc)).dump();
        if (serde::fnv1a64(norm.data(), norm.size()) ==
            committed->second.norm_fnv) {
          norm_docs[i] = norm;
          store_hits.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      // Store lost or corrupted the document: the deterministic re-solve
      // must reproduce the committed hash exactly.
      store_misses.fetch_add(1, std::memory_order_relaxed);
      const std::string norm =
          serve::normalized_result(Json::parse(execute(job.spec))).dump();
      if (serde::fnv1a64(norm.data(), norm.size()) !=
          committed->second.norm_fnv)
        throw Error("campaign: re-solved job '" + job.id +
                    "' does not reproduce its committed hash");
      norm_docs[i] = norm;
      executed.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    // Uncommitted (fresh or in-flight at a crash): Intent, run, Commit.
    // Re-intents are idempotent on replay -- scan_journal keeps a set.
    append(Rec::kIntent, encode_intent(static_cast<std::uint32_t>(i), key));
    const int nth_intent =
        intents_appended.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (opts.kill_after_intents > 0 &&
        nth_intent == opts.kill_after_intents) {
      // Crash drill: the Intent is fsync'd; die with it as the last
      // journal record so resume sees this job as in flight.
      std::fprintf(stderr, "[campaign] kill_after_intents=%d reached: "
                   "SIGKILL self (pid %d)\n",
                   opts.kill_after_intents, static_cast<int>(::getpid()));
      ::kill(::getpid(), SIGKILL);
    }
    const std::string norm =
        serve::normalized_result(Json::parse(execute(job.spec))).dump();
    append(Rec::kCommit,
           encode_commit(static_cast<std::uint32_t>(i), key,
                         serde::fnv1a64(norm.data(), norm.size())));
    norm_docs[i] = norm;
    executed.fetch_add(1, std::memory_order_relaxed);
    const int commits =
        commits_appended.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (opts.stop_after_commits > 0 && commits >= opts.stop_after_commits)
      stop.store(true, std::memory_order_release);
    if (opts.verbose)
      std::fprintf(stderr, "[campaign] committed '%s' (%d/%u)\n",
                   job.id.c_str(),
                   static_cast<int>(state.committed.size()) + commits, total);
  };

  if (opts.exec == ExecMode::kLocal || opts.clients <= 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (stop.load(std::memory_order_acquire)) break;
      process(i);
    }
  } else {
    // Served: a shared cursor, N submitter threads.  The journal writer
    // serializes appends; everything else is per-index.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    const int n = std::min<int>(opts.clients, static_cast<int>(jobs.size()));
    threads.reserve(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_acq_rel);
          if (i >= jobs.size()) return;
          try {
            process(i);
          } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu);
            if (first_error == nullptr)
              first_error = std::current_exception();
            stop.store(true, std::memory_order_release);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (first_error != nullptr) std::rethrow_exception(first_error);
  }

  report.executed = executed.load();
  report.store_hits = store_hits.load();
  report.store_misses = store_misses.load();
  report.journal_recoveries = recoveries.load();
  report.wall_s = ms_since(t_start) / 1000.0;
  if (stop.load(std::memory_order_acquire)) return report;  // partial run

  // ---- Seal: build the artifact in index order from the normalized
  // documents, weight per-design aggregates by class field counts, and
  // record its hash in the End record.  Every path to this point produced
  // the same norm_docs, so the artifact bytes are bit-identical across
  // uninterrupted, killed-and-resumed, local, and served runs.
  Json artifact = Json::object();
  artifact.set("campaign", Json::string(spec.name));
  artifact.set("spec_hash", Json::string(hex64(spec_hash)));
  artifact.set("jobs", Json::number(static_cast<double>(total)));
  Json designs = Json::object();
  for (const std::string& design : spec.designs) {
    double fields = 0.0, mct = 0.0, leak = 0.0, nom_mct = 0.0, nom_leak = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // The final round is the fixed point; earlier rounds are trajectory.
      if (jobs[i].spec.design != design || jobs[i].round != spec.rounds - 1)
        continue;
      const Json doc = Json::parse(norm_docs[i]);
      const double w = jobs[i].fields;
      fields += w;
      mct += w * doc.get_number("final_mct_ns", 0.0);
      leak += w * doc.get_number("final_leakage_uw", 0.0);
      nom_mct += w * doc.get_number("nominal_mct_ns", 0.0);
      nom_leak += w * doc.get_number("nominal_leakage_uw", 0.0);
    }
    Json d = Json::object();
    d.set("fields", Json::number(fields));
    if (fields > 0.0) {
      d.set("wafer_mean_final_mct_ns", Json::number(mct / fields));
      d.set("wafer_mean_final_leakage_uw", Json::number(leak / fields));
      d.set("wafer_mean_nominal_mct_ns", Json::number(nom_mct / fields));
      d.set("wafer_mean_nominal_leakage_uw", Json::number(nom_leak / fields));
    }
    designs.set(design, std::move(d));
  }
  artifact.set("designs", std::move(designs));
  Json results = Json::array();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Json entry = Json::object();
    entry.set("id", Json::string(jobs[i].id));
    entry.set("job_key", Json::string(hex64(jobs[i].spec.job_key())));
    entry.set("round", Json::number(jobs[i].round));
    entry.set("dose_class", Json::number(jobs[i].dose_class));
    entry.set("fields", Json::number(jobs[i].fields));
    entry.set("result", Json::parse(norm_docs[i]));
    results.push_back(std::move(entry));
  }
  artifact.set("results", std::move(results));

  const std::string bytes = artifact.dump();
  report.artifact_fnv = serde::fnv1a64(bytes.data(), bytes.size());
  if (state.ended) {
    // A crash after End but before (or during) the artifact write lands
    // here: the journal already sealed the hash, so just verify and
    // rewrite the file.
    if (state.artifact_fnv != report.artifact_fnv)
      throw Error("campaign: rebuilt artifact hash " +
                  hex64(report.artifact_fnv) +
                  " does not match the journaled End record " +
                  hex64(state.artifact_fnv));
  } else {
    append(Rec::kEnd, encode_end(report.artifact_fnv));
  }
  if (!opts.artifact_path.empty()) {
    serde::publish_atomic(opts.artifact_path, [&](std::ostream& os) {
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      os << "\n";
    });
  }

  report.journal_recoveries = recoveries.load();
  report.completed = true;
  report.wall_s = ms_since(t_start) / 1000.0;
  return report;
}

}  // namespace doseopt::campaign
