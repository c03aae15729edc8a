// Session cache of analyzed designs, keyed by job content hash.
//
// A session is one fully analyzed design (flow::DesignContext) shared by
// every job whose (design, scale, seed) triple hashes to the same key.  The
// expensive per-design state -- generated netlist, placement, characterized
// variant libraries, fitted coefficient sets -- therefore amortizes across
// repeated and parameter-swept requests; a cache-hit job skips straight to
// the QP/QCP solve.  A second layer memoizes finished result documents by
// full job hash (the flow is deterministic), so an exactly repeated job
// skips the solve too.
//
// Concurrency contract: the cache map is guarded by its own mutex; each
// session carries a mutex that a worker holds for the *duration of a job*
// (jobs mutate the context: lazy coefficient fits, dosePl placement moves
// with save/restore).  Jobs on different sessions run fully in parallel.
//
// When a snapshot directory is configured, populate() warm-starts a missing
// session from `<dir>/<key>.snap` (serde layer) instead of re-generating
// and re-characterizing, and save_all() persists every built session so
// caches survive server restarts.
//
// When a result-store directory is configured, memoized result documents
// are additionally published to the shared content-addressed on-disk store
// (serde/result_store.h).  The store is shared across every worker process
// of a fleet: a result solved by one worker answers as a memoized hit on
// any other -- and survives the death of the worker that computed it.  A
// corrupt record is quarantined (renamed to `<file>.corrupt`) and treated
// as a miss; the deterministic re-solve republishes identical bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "flow/context.h"
#include "flow/ssta_yield.h"
#include "serve/job.h"

namespace doseopt::serve {

class SessionCache {
 public:
  /// One cached design.  `mu` serializes jobs against the context.
  struct Session {
    std::mutex mu;
    std::unique_ptr<flow::DesignContext> ctx;  ///< built under mu
    std::uint64_t key = 0;
    /// ssta_yield curves of the nominal recipe (under mu); cleared by any
    /// job that moves the placement.
    flow::SstaYieldMemo yield_memo;
  };

  /// Counters (monotonic, relaxed).
  struct Stats {
    std::uint64_t context_hits = 0;
    std::uint64_t context_misses = 0;
    std::uint64_t snapshots_restored = 0;
    std::uint64_t restore_failures = 0;  ///< corrupt snapshot -> cold rebuild
    std::uint64_t save_failures = 0;     ///< snapshot write failed (kept going)
    std::uint64_t coeff_hits = 0;
    std::uint64_t coeff_misses = 0;
    std::uint64_t result_hits = 0;
    std::uint64_t result_misses = 0;
    std::uint64_t result_disk_hits = 0;   ///< served from the shared store
    std::uint64_t result_quarantined = 0; ///< corrupt store records set aside
    std::uint64_t result_store_failures = 0;  ///< publish failed (kept going)
    std::uint64_t sessions = 0;
    std::uint64_t characterize_calls = 0;  ///< summed over idle sessions
  };

  explicit SessionCache(std::string snapshot_dir = "",
                        std::string result_store_dir = "");

  /// Session slot for this job's (design, scale, seed); never blocks on
  /// other sessions.  The context may not be built yet -- callers lock
  /// `session->mu`, then call populate() if `ctx` is null.
  std::shared_ptr<Session> acquire(const JobSpec& spec);

  /// Build (or snapshot-restore) the session's context.  Caller must hold
  /// `session.mu`.  Sets `*restored` to true when the context came from a
  /// snapshot file.  Counts hit/miss/restore statistics.
  ///
  /// Restore is self-healing: an unreadable or checksum-corrupt snapshot is
  /// quarantined (renamed to `<file>.corrupt`) and the context is rebuilt
  /// cold from the spec -- never an abort.  The rebuild is deterministic,
  /// so the resulting session is bit-identical to a never-snapshotted one.
  void populate(Session& session, const JobSpec& spec, bool* restored);

  /// Record a coefficient-cache observation (telemetry only).
  void count_coeff(bool hit);

  /// Memoized job results keyed by JobSpec::job_key().  The pipeline is
  /// deterministic, so an identical job always yields the identical result
  /// document; a repeated request skips even the QP/QCP solve.  In-memory
  /// map is bounded FIFO (oldest entries evicted past kMaxResults); a miss
  /// there falls through to the shared on-disk store when configured, and a
  /// disk hit is promoted back into memory.
  std::optional<std::string> lookup_result(std::uint64_t job_key);
  void store_result(std::uint64_t job_key, std::string result_json);

  static constexpr std::size_t kMaxResults = 1024;

  /// Persist one built session now (caller must hold `session.mu`; no-op
  /// without a snapshot directory or for an unbuilt session).  Fleet
  /// workers call this eagerly after a cold build so a respawned
  /// replacement restores the session instead of re-characterizing.
  /// Failures are counted, never thrown.
  void save_session(Session& session);

  /// Persist every built session to the snapshot directory (no-op without
  /// one).  Takes each session's mutex, so it waits for running jobs.
  /// Per-session write failures are counted and skipped (the remaining
  /// sessions still persist); each successful publish is recorded in the
  /// serde last-good journal.
  void save_all();

  /// Statistics snapshot.  Busy sessions are skipped when summing
  /// characterize_calls (their mutex is held by a running job).
  Stats stats() const;

  const std::string& snapshot_dir() const { return snapshot_dir_; }
  const std::string& result_store_dir() const { return result_store_dir_; }

 private:
  std::string snapshot_path(std::uint64_t key) const;
  /// Insert into the in-memory memo map (caller holds results_mu_).
  void remember_result(std::uint64_t job_key, std::string result_json);

  std::string snapshot_dir_;
  std::string result_store_dir_;
  mutable std::mutex mu_;  ///< guards sessions_ map structure
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;

  std::mutex results_mu_;
  std::map<std::uint64_t, std::string> results_;
  std::deque<std::uint64_t> result_order_;  ///< FIFO eviction order

  std::atomic<std::uint64_t> context_hits_{0};
  std::atomic<std::uint64_t> context_misses_{0};
  std::atomic<std::uint64_t> snapshots_restored_{0};
  std::atomic<std::uint64_t> restore_failures_{0};
  std::atomic<std::uint64_t> save_failures_{0};
  std::atomic<std::uint64_t> coeff_hits_{0};
  std::atomic<std::uint64_t> coeff_misses_{0};
  std::atomic<std::uint64_t> result_hits_{0};
  std::atomic<std::uint64_t> result_misses_{0};
  std::atomic<std::uint64_t> result_disk_hits_{0};
  std::atomic<std::uint64_t> result_quarantined_{0};
  std::atomic<std::uint64_t> result_store_failures_{0};
};

}  // namespace doseopt::serve
