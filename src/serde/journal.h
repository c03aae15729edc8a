// Checksummed append-only write-ahead journal.
//
// The campaign driver records orchestration intent ("about to run job i")
// and outcome ("job i committed with result hash H") so that a process
// killed at ANY instant can resume exactly once: committed jobs are
// skipped through the content-addressed result store, in-flight intents
// are deterministically re-submitted.  The format reuses the serde
// conventions (little-endian framing, FNV-1a checksums, durable.h
// writes):
//
//   segment file "<dir>/journal.<index %06u>.seg":
//     [ 8 bytes magic "DOSEJNL1" ][ u32 version ][ u64 segment index ]
//     record*:
//       [ u32 record magic ][ u32 type ][ u64 seq ]
//       [ u64 payload size ][ u64 FNV-1a of payload ][ payload bytes ]
//
// Appends write the full record then fsync the segment; rotation
// publishes the next segment header with publish_atomic, so a crash can
// never leave a half-written segment header.  Replay validates
// every record in order (magic, checksum, contiguous seq) and tolerates a
// torn tail -- a partially written final record -- ONLY in the final
// segment, reporting it instead of throwing; torn or missing bytes
// anywhere else are real corruption and throw doseopt::Error.
//
// The `campaign.journal_torn` fault point fires inside append(): it writes
// only a prefix of the record bytes and throws, producing exactly the
// torn tail a mid-write crash would -- the recovery path (reopen, which
// truncates the tail, then re-append) is what the chaos harness and the
// fault sweep exercise.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace doseopt::serde {

/// Current journal format version.
inline constexpr std::uint32_t kJournalVersion = 1;

/// One replayed record.
struct JournalRecord {
  std::uint32_t type = 0;
  std::uint64_t seq = 0;
  std::string payload;
};

/// Result of replaying a journal directory.
struct JournalReplay {
  std::vector<JournalRecord> records;  ///< every valid record, in seq order
  std::uint64_t next_seq = 0;          ///< seq the next append would get
  std::uint64_t segments = 0;          ///< segment files seen
  bool torn_tail = false;              ///< final segment ended mid-record
  std::uint64_t torn_bytes = 0;        ///< bytes discarded from the tail
};

/// Path of segment `index` inside `dir` ("<dir>/journal.<index %06u>.seg").
std::string journal_segment_path(const std::string& dir, std::uint64_t index);

/// Read and validate every segment of `dir` in index order.  A directory
/// with no segments replays empty.  Throws doseopt::Error on corruption
/// anywhere except a torn tail of the final segment (reported, not
/// thrown).
JournalReplay replay_journal(const std::string& dir);

/// Appender.  Opening replays the directory first: a torn tail left by a
/// crashed writer is truncated away, and appends continue at the next
/// sequence number of the surviving prefix.
class JournalWriter {
 public:
  /// `rotate_bytes`: a segment exceeding this starts a successor on the
  /// next append.
  explicit JournalWriter(std::string dir,
                         std::size_t rotate_bytes = 1u << 20);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Durably append one record (write + fsync); returns its seq.  Throws
  /// on I/O failure or an injected campaign.journal_torn firing; after a
  /// torn append the writer is poisoned (the segment has a garbage tail)
  /// and every later append throws -- recover by constructing a fresh
  /// JournalWriter, which truncates the tail.
  std::uint64_t append(std::uint32_t type, std::string_view payload);

  std::uint64_t next_seq() const;
  std::uint64_t segment_index() const;

 private:
  void open_fresh_segment(std::uint64_t index);

  mutable std::mutex mu_;
  std::string dir_;
  std::size_t rotate_bytes_;
  int fd_ = -1;
  bool poisoned_ = false;
  std::uint64_t segment_index_ = 0;
  std::uint64_t segment_bytes_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace doseopt::serde
