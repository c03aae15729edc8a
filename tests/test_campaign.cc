// Tests for durable campaign execution: the checksummed write-ahead
// journal (framing, rotation, torn-tail recovery, the
// campaign.journal_torn fault point), deterministic spec expansion, the
// journal-state scan, and the driver's exactly-once crash/resume
// semantics -- a campaign interrupted at any point resumes to an
// artifact bit-identical to an uninterrupted run -- and the crash-state
// matrix of every durable file format.
//
// The CI fault sweep re-runs this binary with
// DOSEOPT_FAULTS=campaign.journal_torn:once; the CampaignSweep test
// below is the designated consumer of the environment-armed fault, so
// it is defined first.  Raw-journal tests run under SuspendScope so the
// armed fault cannot fire outside a driver's recovery ladder.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/error.h"
#include "common/strings.h"
#include "faultinject/fault.h"
#include "flow/context.h"
#include "serde/durable.h"
#include "serde/journal.h"
#include "serde/result_store.h"
#include "serve/cache.h"

namespace doseopt {
namespace {

namespace fi = faultinject;

std::string test_dir(const char* tag) {
  const std::string dir = "/tmp/doseopt_test_campaign_" + std::string(tag) +
                          "_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Two jobs (one design, one round, two dose classes): enough to exercise
/// intents, commits, resume, and the artifact aggregate, cheaply.
campaign::CampaignSpec tiny_spec() {
  campaign::CampaignSpec spec;
  spec.name = "t";
  spec.designs = {"aes65"};
  spec.scale = 0.02;
  spec.rounds = 1;
  spec.max_classes = 2;
  return spec;
}

campaign::CampaignOptions dir_opts(const std::string& dir) {
  campaign::CampaignOptions opts;
  opts.journal_dir = dir + "/journal";
  opts.artifact_path = dir + "/artifact.json";
  opts.result_store_dir = dir + "/results";
  return opts;
}

// ---------------------------------------------------------------------------
// The sweep consumer: must pass with DOSEOPT_FAULTS=campaign.journal_torn:once
// armed (and, trivially, with nothing armed).
// ---------------------------------------------------------------------------

TEST(CampaignSweep, InjectedTornAppendStillYieldsBitIdenticalArtifact) {
  const std::string dir = test_dir("sweep");
  // Run with whatever the environment armed: a torn journal append fires
  // inside the writer and is absorbed by the driver's recovery ladder
  // (fresh writer over the truncated tail, append retried).
  const campaign::CampaignReport faulted =
      campaign::run_campaign(tiny_spec(), dir_opts(dir + "/a"));
  EXPECT_TRUE(faulted.completed);

  // Fault-free reference of the same spec.
  fi::SuspendScope fault_free;
  const campaign::CampaignReport ref =
      campaign::run_campaign(tiny_spec(), dir_opts(dir + "/b"));
  EXPECT_TRUE(ref.completed);

  EXPECT_EQ(faulted.artifact_fnv, ref.artifact_fnv);
  EXPECT_EQ(read_file(dir + "/a/artifact.json"),
            read_file(dir + "/b/artifact.json"));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Journal framing, rotation, and torn-tail recovery.
// ---------------------------------------------------------------------------

TEST(Journal, AppendReplayRoundTripsAcrossSegmentRotation) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("rotate");
  {
    // Tiny rotation bound: ~2 records per segment.
    serde::JournalWriter writer(dir, /*rotate_bytes=*/128);
    for (std::uint64_t i = 0; i < 10; ++i) {
      const std::uint64_t seq = writer.append(
          static_cast<std::uint32_t>(i % 4 + 1),
          "payload-" + std::to_string(i) + std::string(i, 'x'));
      EXPECT_EQ(seq, i);
    }
    EXPECT_EQ(writer.next_seq(), 10u);
    EXPECT_GT(writer.segment_index(), 0u);  // rotation really happened
  }
  const serde::JournalReplay replay = serde::replay_journal(dir);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_GT(replay.segments, 1u);
  ASSERT_EQ(replay.records.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(replay.records[i].seq, i);
    EXPECT_EQ(replay.records[i].type, static_cast<std::uint32_t>(i % 4 + 1));
    EXPECT_EQ(replay.records[i].payload,
              "payload-" + std::to_string(i) + std::string(i, 'x'));
  }

  // A new writer continues the sequence in a fresh segment.
  {
    serde::JournalWriter writer(dir, 128);
    EXPECT_EQ(writer.append(7, "after-reopen"), 10u);
  }
  EXPECT_EQ(serde::replay_journal(dir).records.size(), 11u);
  std::filesystem::remove_all(dir);
}

TEST(Journal, TornTailIsReportedThenTruncatedByTheNextWriter) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("torn");
  {
    serde::JournalWriter writer(dir);
    writer.append(1, "first");
    writer.append(2, "second");
  }
  // Simulate a crash mid-append: valid prefix + garbage tail bytes in the
  // final segment (what a torn write or power cut leaves behind).
  const std::string seg = serde::journal_segment_path(dir, 0);
  const auto clean_size = std::filesystem::file_size(seg);
  {
    std::ofstream os(seg, std::ios::binary | std::ios::app);
    os.write("DJNLgarbage-partial-record", 26);
  }
  const serde::JournalReplay replay = serde::replay_journal(dir);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.torn_bytes, 26u);
  ASSERT_EQ(replay.records.size(), 2u);  // the durable prefix is intact
  EXPECT_EQ(replay.records[1].payload, "second");

  // The next writer truncates the torn tail and appends cleanly after it.
  {
    serde::JournalWriter writer(dir);
    EXPECT_EQ(writer.append(3, "third"), 2u);
  }
  EXPECT_GT(std::filesystem::file_size(seg), clean_size);
  const serde::JournalReplay healed = serde::replay_journal(dir);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_EQ(healed.records[2].payload, "third");
  std::filesystem::remove_all(dir);
}

TEST(Journal, CorruptionInANonFinalSegmentIsAnErrorNotATornTail) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("corrupt");
  {
    serde::JournalWriter writer(dir, /*rotate_bytes=*/64);
    for (int i = 0; i < 6; ++i)
      writer.append(1, "record-" + std::to_string(i));
  }
  ASSERT_GT(serde::replay_journal(dir).segments, 1u);
  // Flip one payload byte in the FIRST segment: a checksum mismatch in the
  // middle of history is corruption (fail loudly), not a crash artifact.
  const std::string seg0 = serde::journal_segment_path(dir, 0);
  {
    std::fstream f(seg0, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(seg0) - 2));
    f.put('!');
  }
  EXPECT_THROW(serde::replay_journal(dir), Error);
  std::filesystem::remove_all(dir);
}

TEST(Journal, TornFaultPoisonsTheWriterUntilReconstructed) {
  const std::string dir = test_dir("fault");
  auto writer = std::make_unique<serde::JournalWriter>(dir);
  writer->append(1, "durable");
  {
    fi::ArmScope torn("campaign.journal_torn", "once");
    try {
      writer->append(2, "doomed");
      FAIL() << "expected the torn-append fault to fire";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("[fault:campaign.journal_torn]"),
                std::string::npos)
          << e.what();
    }
    // The torn write left half a record on disk; the poisoned writer
    // refuses further appends (its in-memory state no longer matches).
    EXPECT_THROW(writer->append(2, "still-poisoned"), Error);
  }
  const serde::JournalReplay torn_replay = serde::replay_journal(dir);
  EXPECT_TRUE(torn_replay.torn_tail);
  ASSERT_EQ(torn_replay.records.size(), 1u);

  // Recovery ladder: a fresh writer truncates the torn tail and retries.
  writer = std::make_unique<serde::JournalWriter>(dir);
  EXPECT_EQ(writer->append(2, "retried"), 1u);
  const serde::JournalReplay healed = serde::replay_journal(dir);
  EXPECT_FALSE(healed.torn_tail);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[1].payload, "retried");
  writer.reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Spec expansion and record codecs.
// ---------------------------------------------------------------------------

TEST(CampaignExpand, ExpansionIsDeterministicAndDeadlineFree) {
  campaign::CampaignSpec spec;
  spec.designs = {"aes65", "aes90"};
  spec.rounds = 3;
  spec.max_classes = 3;

  const std::vector<campaign::CampaignJob> a = campaign::expand_campaign(spec);
  const std::vector<campaign::CampaignJob> b = campaign::expand_campaign(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 2u * 3u * campaign::dose_classes(spec).size());
  std::set<std::uint64_t> keys;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].spec.job_key(), b[i].spec.job_key());
    keys.insert(a[i].spec.job_key());
    // Round 0 is the pure DMopt solve; later rounds turn dosePl on and
    // walk the solver grid.
    EXPECT_EQ(a[i].spec.run_dosepl, a[i].round >= 1) << a[i].id;
    EXPECT_GT(a[i].fields, 0) << a[i].id;
  }
  EXPECT_EQ(keys.size(), a.size());  // content-keyed: all distinct

  // The dose classes respect the cap, and their field counts tile the
  // wafer exactly.
  const std::vector<campaign::DoseClass> classes =
      campaign::dose_classes(spec);
  ASSERT_LE(classes.size(), 3u);
  int fields = 0;
  for (const campaign::DoseClass& c : classes) {
    EXPECT_GT(c.fields, 0);
    EXPECT_GT(c.range_pct, 0.0);
    fields += c.fields;
  }
  EXPECT_EQ(fields,
            static_cast<int>(wafer::Wafer(spec.wafer).field_count()));

  // A deadline changes the submitted specs but never the campaign
  // identity: the journal's Begin hash must match across deadlines.
  campaign::CampaignSpec with_deadline = spec;
  with_deadline.deadline_ms = 5000.0;
  EXPECT_EQ(spec.spec_hash(), with_deadline.spec_hash());
  EXPECT_EQ(campaign::expand_campaign(with_deadline)[0].spec.deadline_ms,
            5000.0);
  // Any identity field moves the hash.
  campaign::CampaignSpec other = spec;
  other.scale = 0.06;
  EXPECT_NE(spec.spec_hash(), other.spec_hash());
}

TEST(CampaignCodec, RecordPayloadsRoundTrip) {
  const campaign::BeginRec begin =
      campaign::decode_begin(campaign::encode_begin(0xABCDull, 7, "wafer"));
  EXPECT_EQ(begin.spec_hash, 0xABCDull);
  EXPECT_EQ(begin.total, 7u);
  EXPECT_EQ(begin.name, "wafer");

  const auto intent =
      campaign::decode_intent(campaign::encode_intent(3, 0x11AAull));
  EXPECT_EQ(intent.first, 3u);
  EXPECT_EQ(intent.second, 0x11AAull);

  const campaign::CommitRec commit = campaign::decode_commit(
      campaign::encode_commit(5, 0x22BBull, 0x33CCull));
  EXPECT_EQ(commit.index, 5u);
  EXPECT_EQ(commit.job_key, 0x22BBull);
  EXPECT_EQ(commit.norm_fnv, 0x33CCull);

  EXPECT_EQ(campaign::decode_end(campaign::encode_end(0x44DDull)), 0x44DDull);
}

TEST(CampaignScan, DigestsCommitsIntentsAndEnd) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("scan");
  {
    serde::JournalWriter writer(dir);
    const auto put = [&](campaign::Rec type, const std::string& payload) {
      writer.append(static_cast<std::uint32_t>(type), payload);
    };
    put(campaign::Rec::kBegin, campaign::encode_begin(0xFEEDull, 3, "t"));
    put(campaign::Rec::kIntent, campaign::encode_intent(0, 100));
    put(campaign::Rec::kCommit, campaign::encode_commit(0, 100, 111));
    put(campaign::Rec::kIntent, campaign::encode_intent(1, 200));
  }
  const campaign::JournalState state =
      campaign::scan_journal(serde::replay_journal(dir));
  EXPECT_TRUE(state.has_begin);
  EXPECT_EQ(state.begin.spec_hash, 0xFEEDull);
  EXPECT_EQ(state.begin.total, 3u);
  ASSERT_EQ(state.committed.size(), 1u);
  EXPECT_EQ(state.committed.at(0).norm_fnv, 111u);
  EXPECT_EQ(state.intents.size(), 2u);
  EXPECT_EQ(state.in_flight(), 1);  // intent 1 never committed
  EXPECT_FALSE(state.ended);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Driver: exactly-once execution, resume, and refusal paths.
// ---------------------------------------------------------------------------

TEST(CampaignRun, ResumeOfACompletedCampaignIsAllStoreHits) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("rerun");
  const campaign::CampaignOptions opts = dir_opts(dir);

  const campaign::CampaignReport first =
      campaign::run_campaign(tiny_spec(), opts);
  EXPECT_TRUE(first.completed);
  EXPECT_EQ(first.jobs_total, 2);
  EXPECT_EQ(first.executed, 2);
  EXPECT_EQ(first.committed_prior, 0);
  const std::string artifact = read_file(opts.artifact_path);

  // A second invocation without --resume must refuse the non-empty
  // journal instead of silently rewriting history.
  EXPECT_THROW(campaign::run_campaign(tiny_spec(), opts), Error);

  campaign::CampaignOptions resume = opts;
  resume.resume = true;
  const campaign::CampaignReport second =
      campaign::run_campaign(tiny_spec(), resume);
  EXPECT_TRUE(second.completed);
  EXPECT_EQ(second.committed_prior, 2);
  EXPECT_EQ(second.executed, 0);          // nothing re-ran...
  EXPECT_EQ(second.store_hits, 2);        // ...every commit answered by disk
  EXPECT_EQ(second.store_misses, 0);
  EXPECT_EQ(second.artifact_fnv, first.artifact_fnv);
  EXPECT_EQ(read_file(opts.artifact_path), artifact);

  // Resuming under a DIFFERENT spec is a loud identity error.
  campaign::CampaignSpec drifted = tiny_spec();
  drifted.scale = 0.025;
  EXPECT_THROW(campaign::run_campaign(drifted, resume), Error);
  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, PartialRunResumesToBitIdenticalArtifact) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("partial");

  // Uninterrupted reference (its own journal, shared result store).
  campaign::CampaignOptions ref = dir_opts(dir);
  ref.journal_dir = dir + "/journal_ref";
  ref.artifact_path = dir + "/artifact_ref.json";
  const campaign::CampaignReport full =
      campaign::run_campaign(tiny_spec(), ref);
  EXPECT_TRUE(full.completed);

  // Interrupted run: stop after the first commit, no artifact yet.
  campaign::CampaignOptions opts = dir_opts(dir);
  campaign::CampaignOptions partial = opts;
  partial.stop_after_commits = 1;
  const campaign::CampaignReport stopped =
      campaign::run_campaign(tiny_spec(), partial);
  EXPECT_FALSE(stopped.completed);
  EXPECT_FALSE(std::filesystem::exists(opts.artifact_path));

  campaign::CampaignOptions resume = opts;
  resume.resume = true;
  const campaign::CampaignReport resumed =
      campaign::run_campaign(tiny_spec(), resume);
  EXPECT_TRUE(resumed.completed);
  EXPECT_GE(resumed.committed_prior, 1);
  EXPECT_EQ(resumed.artifact_fnv, full.artifact_fnv);
  EXPECT_EQ(read_file(opts.artifact_path), read_file(ref.artifact_path));
  std::filesystem::remove_all(dir);
}

TEST(CampaignRun, CraftedInFlightIntentIsResubmitted) {
  fi::SuspendScope quiet;
  const std::string dir = test_dir("inflight");
  const campaign::CampaignOptions opts = dir_opts(dir);
  const campaign::CampaignSpec spec = tiny_spec();
  const std::vector<campaign::CampaignJob> jobs =
      campaign::expand_campaign(spec);

  // Craft the journal a crashed driver leaves: Begin + a dangling Intent
  // for job 0 (killed between the Intent fsync and the Commit).
  {
    serde::JournalWriter writer(opts.journal_dir);
    writer.append(
        static_cast<std::uint32_t>(campaign::Rec::kBegin),
        campaign::encode_begin(spec.spec_hash(),
                               static_cast<std::uint32_t>(jobs.size()),
                               spec.name));
    writer.append(
        static_cast<std::uint32_t>(campaign::Rec::kIntent),
        campaign::encode_intent(0, jobs[0].spec.job_key()));
  }

  campaign::CampaignOptions resume = opts;
  resume.resume = true;
  const campaign::CampaignReport report =
      campaign::run_campaign(spec, resume);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.committed_prior, 0);
  EXPECT_EQ(report.resubmitted_inflight, 1);
  EXPECT_EQ(report.executed, 2);  // the in-flight job re-ran like the rest

  // The healed journal commits every job exactly once and is sealed.
  const campaign::JournalState state =
      campaign::scan_journal(serde::replay_journal(opts.journal_dir));
  EXPECT_EQ(state.committed.size(), jobs.size());
  EXPECT_EQ(state.in_flight(), 0);
  EXPECT_TRUE(state.ended);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash-state matrix: for every durable format, each state a killed writer
// or a power cut can leave beside the old file, recovered by the format's
// real reader or recovery step.
// ---------------------------------------------------------------------------

/// One durable format.  `recover` runs the real reader or recovery step on
/// a state directory and returns a fingerprint of what it landed on.
struct DurableFormat {
  std::string name;
  std::string target;  ///< the published file, relative to a state dir
  /// Bytes a complete temp holds: the first `published_bytes` of the new
  /// file (0 = all of it; a journal rotation publishes only the header).
  std::size_t published_bytes = 0;
  std::function<void(const std::string&)> make_old;
  std::function<void(const std::string&)> publish_new;
  std::function<std::string(const std::string&)> recover;
  std::string old_state, new_state;  ///< expected fingerprints
};

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A reaped child's pid: provably dead, as a crashed writer's is.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return pid;
}

DurableFormat snapshot_format() {
  serve::JobSpec job;
  job.design = "aes65";
  job.scale = 0.02;
  // The old snapshot holds the nominal library only; the new one also the
  // variants a coefficient fit characterizes.
  static flow::DesignContext old_ctx(job.design_spec());
  static flow::DesignContext new_ctx = [&] {
    flow::DesignContext ctx(job.design_spec());
    ctx.coefficients(/*width=*/false);
    return ctx;
  }();
  EXPECT_GT(new_ctx.repo().characterized_count(),
            old_ctx.repo().characterized_count());
  // The name SessionCache gives the session's snapshot.
  const std::string target =
      "snap/" + str_format("%016llx.snap", static_cast<unsigned long long>(
                                               job.session_key()));
  DurableFormat f;
  f.name = "snapshot";
  f.target = target;
  f.make_old = [target](const std::string& dir) {
    std::filesystem::create_directories(dir + "/snap");
    old_ctx.save_snapshot(dir + "/" + target);
  };
  f.publish_new = [target](const std::string& dir) {
    new_ctx.save_snapshot(dir + "/" + target);
  };
  // Restore-or-quarantine, as a serving worker does on its first job.
  f.recover = [job](const std::string& dir) {
    serve::SessionCache cache(dir + "/snap", "");
    const auto session = cache.acquire(job);
    bool restored = false;
    cache.populate(*session, job, &restored);
    return restored ? "restored " + std::to_string(
                                        session->ctx->repo()
                                            .characterized_count())
                    : std::string("rebuilt cold");
  };
  f.old_state =
      "restored " + std::to_string(old_ctx.repo().characterized_count());
  f.new_state =
      "restored " + std::to_string(new_ctx.repo().characterized_count());
  return f;
}

DurableFormat result_format() {
  constexpr std::uint64_t kKey = 0x0123456789ABCDEFull;
  DurableFormat f;
  f.name = "result record";
  f.target = "results/" + serde::result_path("", kKey).substr(1);
  f.make_old = [](const std::string& dir) {
    serde::write_result(dir + "/results", kKey, "{\"doc\":\"old\"}");
  };
  f.publish_new = [](const std::string& dir) {
    serde::write_result(dir + "/results", kKey,
                        "{\"doc\":\"new and longer\"}");
  };
  f.recover = [](const std::string& dir) {
    serve::SessionCache cache("", dir + "/results");
    return cache.lookup_result(kKey).value_or("miss");
  };
  f.old_state = "{\"doc\":\"old\"}";
  f.new_state = "{\"doc\":\"new and longer\"}";
  return f;
}

DurableFormat journal_format() {
  // Two records fill segment 0 past the 64-byte bound, so the next append
  // rotates: the new state is segment 1, published by the rotation.
  constexpr std::size_t kRotate = 64;
  DurableFormat f;
  f.name = "journal segment";
  f.target = "journal/journal.000001.seg";
  f.published_bytes = 8 + 4 + 8;
  f.make_old = [](const std::string& dir) {
    serde::JournalWriter writer(dir + "/journal", kRotate);
    writer.append(1, "record-0");
    writer.append(1, "record-1");
  };
  f.publish_new = [](const std::string& dir) {
    serde::JournalWriter writer(dir + "/journal", kRotate);
    writer.append(1, "record-2");
  };
  // Reopen (reclaim, truncate a torn tail), then replay.
  f.recover = [](const std::string& dir) {
    { serde::JournalWriter writer(dir + "/journal", kRotate); }
    const serde::JournalReplay replay = serde::replay_journal(dir + "/journal");
    std::string fp = std::to_string(replay.segments) + " segments:";
    for (const serde::JournalRecord& r : replay.records) fp += " " + r.payload;
    return fp;
  };
  f.old_state = "1 segments: record-0 record-1";
  f.new_state = "2 segments: record-0 record-1 record-2";
  return f;
}

DurableFormat artifact_format(const std::string& scratch) {
  // Template: the sealed journal and result store of campaign "u", and the
  // artifact of campaign "t" as the old file at the same path.
  campaign::CampaignSpec old_spec = tiny_spec();
  campaign::CampaignSpec spec = tiny_spec();
  spec.name = "u";
  const std::string tmpl = scratch + "/template";
  campaign::CampaignOptions t_opts = dir_opts(tmpl);
  t_opts.journal_dir = tmpl + "/journal_t";
  t_opts.artifact_path = tmpl + "/artifact_t.json";
  campaign::run_campaign(old_spec, t_opts);
  campaign::CampaignOptions u_opts = dir_opts(tmpl);
  u_opts.artifact_path = tmpl + "/artifact_u.json";
  campaign::run_campaign(spec, u_opts);

  DurableFormat f;
  f.name = "campaign artifact";
  f.target = "artifact.json";
  f.make_old = [tmpl](const std::string& dir) {
    std::filesystem::create_directories(dir);
    std::filesystem::copy(tmpl + "/journal", dir + "/journal",
                          std::filesystem::copy_options::recursive);
    std::filesystem::copy(tmpl + "/results", dir + "/results",
                          std::filesystem::copy_options::recursive);
    std::filesystem::copy_file(tmpl + "/artifact_t.json",
                               dir + "/artifact.json");
  };
  // `--resume` of the sealed journal: rebuild from the store, verify the
  // End hash, publish the artifact.
  f.recover = [spec](const std::string& dir) {
    campaign::CampaignOptions opts = dir_opts(dir);
    opts.resume = true;
    campaign::run_campaign(spec, opts);
    return read_file(dir + "/artifact.json");
  };
  f.publish_new = [recover = f.recover](const std::string& dir) {
    recover(dir);
  };
  // Resume always lands on the new artifact, from either state.
  f.old_state = f.new_state = read_file(tmpl + "/artifact_u.json");
  EXPECT_NE(read_file(tmpl + "/artifact_t.json"), f.new_state);
  return f;
}

TEST(DurableCrashMatrix, EveryFormatRecoversTheOldOrTheNewStateNeverAMix) {
  fi::SuspendScope quiet;
  const std::string scratch = test_dir("crash_matrix");
  const pid_t dead = dead_pid();
  const std::vector<DurableFormat> formats = {
      snapshot_format(), result_format(), journal_format(),
      artifact_format(scratch)};

  int run = 0;
  for (const DurableFormat& f : formats) {
    SCOPED_TRACE(f.name);
    // The new file's bytes, from a clean publish.
    const std::string clean = scratch + "/clean" + std::to_string(run++);
    f.make_old(clean);
    f.publish_new(clean);
    const std::string new_bytes = read_file(clean + "/" + f.target);
    const std::size_t published =
        f.published_bytes != 0 ? f.published_bytes : new_bytes.size();
    ASSERT_LE(published, new_bytes.size());

    struct CrashState {
      const char* what;
      std::string tmp_bytes;  ///< planted temp of the dead writer ("" = none)
      bool published;         ///< the rename (and dir fsync) happened
    };
    const std::vector<CrashState> states = {
        {"no crash", "", false},
        {"partial temp of a dead writer", new_bytes.substr(0, published / 2),
         false},
        {"complete temp, rename lost", new_bytes.substr(0, published), false},
        {"new file", "", true},
    };
    for (const CrashState& state : states) {
      SCOPED_TRACE(state.what);
      const std::string dir = scratch + "/state" + std::to_string(run++);
      f.make_old(dir);
      if (state.published) f.publish_new(dir);
      const std::string tmp =
          dir + "/" + f.target + ".tmp." + std::to_string(dead) + ".0";
      if (!state.tmp_bytes.empty()) write_bytes(tmp, state.tmp_bytes);

      EXPECT_EQ(f.recover(dir), state.published ? f.new_state : f.old_state);
      serde::reclaim_stale_tmp_files(
          std::filesystem::path(dir + "/" + f.target).parent_path().string());
      EXPECT_FALSE(std::filesystem::exists(tmp));
    }
  }
  std::filesystem::remove_all(scratch);
}

}  // namespace
}  // namespace doseopt
