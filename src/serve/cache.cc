#include "serve/cache.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <utility>
#include <vector>

#include "serde/durable.h"
#include "serde/result_store.h"
#include "serde/snapshot.h"

namespace doseopt::serve {

namespace {

/// The snapshot must describe the same design the job asked for; a stale or
/// hash-colliding file falls back to a fresh build instead of silently
/// answering for the wrong design.
bool spec_matches(const gen::DesignSpec& a, const gen::DesignSpec& b) {
  return a.name == b.name && a.tech == b.tech &&
         a.target_cells == b.target_cells && a.target_nets == b.target_nets &&
         a.seed == b.seed;
}

}  // namespace

SessionCache::SessionCache(std::string snapshot_dir,
                           std::string result_store_dir)
    : snapshot_dir_(std::move(snapshot_dir)),
      result_store_dir_(std::move(result_store_dir)) {
  if (!snapshot_dir_.empty()) {
    std::filesystem::create_directories(snapshot_dir_);
    serde::reclaim_stale_tmp_files(snapshot_dir_);
  }
  if (!result_store_dir_.empty()) {
    std::filesystem::create_directories(result_store_dir_);
    serde::reclaim_stale_tmp_files(result_store_dir_);
  }
}

std::shared_ptr<SessionCache::Session> SessionCache::acquire(
    const JobSpec& spec) {
  const std::uint64_t key = spec.session_key();
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = sessions_[key];
  if (!slot) {
    slot = std::make_shared<Session>();
    slot->key = key;
  }
  return slot;
}

void SessionCache::populate(Session& session, const JobSpec& spec,
                            bool* restored) {
  if (restored != nullptr) *restored = false;
  if (session.ctx != nullptr) {
    context_hits_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  context_misses_.fetch_add(1, std::memory_order_relaxed);
  const gen::DesignSpec want = spec.design_spec();

  if (!snapshot_dir_.empty()) {
    const std::string path = snapshot_path(session.key);
    if (std::filesystem::exists(path)) {
      try {
        serde::DesignState state = serde::read_design_snapshot(path);
        if (spec_matches(state.spec, want)) {
          session.ctx =
              std::make_unique<flow::DesignContext>(std::move(state));
          snapshots_restored_.fetch_add(1, std::memory_order_relaxed);
          if (restored != nullptr) *restored = true;
          return;
        }
      } catch (const std::exception& e) {
        // Corrupt or unreadable snapshot (bad checksum, truncation, injected
        // read fault): quarantine the file for post-mortem and fall through
        // to a cold rebuild.  The rebuild is deterministic from the spec, so
        // the session ends up bit-identical to a never-snapshotted one.
        restore_failures_.fetch_add(1, std::memory_order_relaxed);
        const auto journal = serde::journal_read(snapshot_dir_);
        const std::string name = path.substr(path.find_last_of('/') + 1);
        std::fprintf(stderr,
                     "[serve] snapshot restore failed (%s)%s; quarantining "
                     "and rebuilding cold: %s\n",
                     e.what(),
                     journal.count(name) != 0
                         ? " [journaled as last-good: corrupted on disk]"
                         : "",
                     path.c_str());
        serde::quarantine(path);
      }
    }
  }
  session.ctx = std::make_unique<flow::DesignContext>(want);
}

void SessionCache::count_coeff(bool hit) {
  (hit ? coeff_hits_ : coeff_misses_).fetch_add(1, std::memory_order_relaxed);
}

std::optional<std::string> SessionCache::lookup_result(
    std::uint64_t job_key) {
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    const auto it = results_.find(job_key);
    if (it != results_.end()) {
      result_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (!result_store_dir_.empty()) {
    try {
      if (auto payload = serde::read_result(result_store_dir_, job_key)) {
        // Another worker (or a dead predecessor of this one) published the
        // record; promote it into memory so repeats skip the disk.
        result_hits_.fetch_add(1, std::memory_order_relaxed);
        result_disk_hits_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(results_mu_);
        remember_result(job_key, *payload);
        return payload;
      }
    } catch (const std::exception& e) {
      // Corrupt shared record (torn write from a crashed host, bit rot,
      // injected fleet.cache_corrupt): set it aside for post-mortem and
      // treat the key as a miss.  The re-solve is deterministic, so the
      // republished record is bit-identical to what the file should have
      // held.
      result_quarantined_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "[serve] result cache record corrupt (%s); quarantining\n",
                   e.what());
      serde::quarantine_result(result_store_dir_, job_key);
    }
  }
  result_misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void SessionCache::remember_result(std::uint64_t job_key,
                                   std::string result_json) {
  const auto [it, inserted] =
      results_.emplace(job_key, std::move(result_json));
  if (!inserted) return;  // racing identical job already stored it
  result_order_.push_back(job_key);
  while (result_order_.size() > kMaxResults) {
    results_.erase(result_order_.front());
    result_order_.pop_front();
  }
}

void SessionCache::store_result(std::uint64_t job_key,
                                std::string result_json) {
  if (!result_store_dir_.empty()) {
    try {
      serde::write_result(result_store_dir_, job_key, result_json);
    } catch (const std::exception& e) {
      // A failed publish (disk full, injected fault) must not fail the job;
      // the result still memoizes in memory.
      result_store_failures_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "[serve] result cache publish failed: %s\n",
                   e.what());
    }
  }
  std::lock_guard<std::mutex> lock(results_mu_);
  remember_result(job_key, std::move(result_json));
}

void SessionCache::save_session(Session& session) {
  if (snapshot_dir_.empty() || session.ctx == nullptr) return;
  const std::string path = snapshot_path(session.key);
  try {
    const std::uint64_t checksum = session.ctx->save_snapshot(path);
    serde::journal_append(snapshot_dir_,
                          path.substr(path.find_last_of('/') + 1), checksum);
  } catch (const std::exception& e) {
    // One failed write (disk full, injected fault) must not abort the
    // drain or starve the remaining sessions of persistence.
    save_failures_.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "[serve] snapshot save failed for %s: %s\n",
                 path.c_str(), e.what());
  }
}

void SessionCache::save_all() {
  if (snapshot_dir_.empty()) return;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) {
    std::lock_guard<std::mutex> lock(session->mu);
    save_session(*session);
  }
}

SessionCache::Stats SessionCache::stats() const {
  Stats s;
  s.context_hits = context_hits_.load(std::memory_order_relaxed);
  s.context_misses = context_misses_.load(std::memory_order_relaxed);
  s.snapshots_restored = snapshots_restored_.load(std::memory_order_relaxed);
  s.restore_failures = restore_failures_.load(std::memory_order_relaxed);
  s.save_failures = save_failures_.load(std::memory_order_relaxed);
  s.coeff_hits = coeff_hits_.load(std::memory_order_relaxed);
  s.coeff_misses = coeff_misses_.load(std::memory_order_relaxed);
  s.result_hits = result_hits_.load(std::memory_order_relaxed);
  s.result_misses = result_misses_.load(std::memory_order_relaxed);
  s.result_disk_hits = result_disk_hits_.load(std::memory_order_relaxed);
  s.result_quarantined = result_quarantined_.load(std::memory_order_relaxed);
  s.result_store_failures =
      result_store_failures_.load(std::memory_order_relaxed);
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.sessions = sessions_.size();
    sessions.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) sessions.push_back(session);
  }
  for (const auto& session : sessions) {
    std::unique_lock<std::mutex> lock(session->mu, std::try_to_lock);
    if (lock.owns_lock() && session->ctx != nullptr)
      s.characterize_calls += session->ctx->repo().characterize_calls();
  }
  return s;
}

std::string SessionCache::snapshot_path(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64 ".snap", key);
  return snapshot_dir_ + "/" + name;
}

}  // namespace doseopt::serve
