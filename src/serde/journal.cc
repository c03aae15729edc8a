#include "serde/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/error.h"
#include "faultinject/fault.h"
#include "serde/durable.h"
#include "serde/stream.h"

namespace doseopt::serde {

namespace {

/// Fires inside JournalWriter::append, after a prefix of the record bytes
/// went out but before the fsync -- the exact torn tail a power cut or
/// SIGKILL mid-write leaves behind.  Recovery = reopen (truncate) + retry.
faultinject::FaultPoint g_fault_journal_torn("campaign.journal_torn");

constexpr char kSegmentMagic[8] = {'D', 'O', 'S', 'E', 'J', 'N', 'L', '1'};
constexpr std::uint32_t kRecordMagic = 0x4C4E4A44;  // "DJNL" little-endian
constexpr std::size_t kSegmentHeaderBytes = 8 + 4 + 8;
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 8 + 8;

std::string segment_header_bytes(std::uint64_t index) {
  ByteWriter w;
  for (const char c : kSegmentMagic) w.put_u8(static_cast<std::uint8_t>(c));
  w.put_u32(kJournalVersion);
  w.put_u64(index);
  return w.take();
}

std::string record_bytes(std::uint32_t type, std::uint64_t seq,
                         std::string_view payload) {
  ByteWriter w;
  w.put_u32(kRecordMagic);
  w.put_u32(type);
  w.put_u64(seq);
  w.put_u64(payload.size());
  w.put_u64(fnv1a64(payload.data(), payload.size()));
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return out;
}

/// Indices of the segment files present in `dir`, sorted.
std::vector<std::uint64_t> segment_indices(const std::string& dir) {
  std::vector<std::uint64_t> indices;
  if (!std::filesystem::exists(dir)) return indices;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 13 || name.compare(0, 8, "journal.") != 0 ||
        name.compare(name.size() - 4, 4, ".seg") != 0)
      continue;
    const std::string digits = name.substr(8, name.size() - 12);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    indices.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw Error("journal: cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

/// Parse one segment's bytes into `out`.  Returns the number of bytes of
/// valid prefix; a shorter return than `bytes.size()` means the remainder
/// failed to parse (caller decides torn-tail vs corruption).  Throws only
/// on errors that cannot be a torn write (wrong magic/version/index, or a
/// checksum-valid record whose seq breaks continuity).
std::size_t parse_segment(const std::string& path, const std::string& bytes,
                          std::uint64_t expect_index, std::uint64_t* seq,
                          std::vector<JournalRecord>* out) {
  if (bytes.size() < kSegmentHeaderBytes) {
    // Rotation publishes headers atomically (tmp+rename), so a short
    // header is not a torn write -- unless the file is the freshly-renamed
    // successor a crashed writer never appended to, which rename makes
    // impossible to half-produce.  Treat as corruption.
    throw Error("journal: segment header truncated in " + path);
  }
  if (std::memcmp(bytes.data(), kSegmentMagic, 8) != 0)
    throw Error("journal: bad segment magic in " + path);
  ByteReader hr(std::string_view(bytes).substr(8, kSegmentHeaderBytes - 8));
  const std::uint32_t version = hr.get_u32();
  if (version != kJournalVersion)
    throw Error("journal: unsupported version " + std::to_string(version) +
                " in " + path);
  const std::uint64_t index = hr.get_u64();
  if (index != expect_index)
    throw Error("journal: segment index mismatch in " + path + " (header " +
                std::to_string(index) + ", name " +
                std::to_string(expect_index) + ")");

  std::size_t pos = kSegmentHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderBytes) return pos;
    ByteReader r(std::string_view(bytes).substr(pos, kRecordHeaderBytes));
    if (r.get_u32() != kRecordMagic) return pos;
    const std::uint32_t type = r.get_u32();
    const std::uint64_t rec_seq = r.get_u64();
    const std::uint64_t size = r.get_u64();
    const std::uint64_t checksum = r.get_u64();
    if (bytes.size() - pos - kRecordHeaderBytes < size) return pos;
    const std::string_view payload =
        std::string_view(bytes).substr(pos + kRecordHeaderBytes,
                                       static_cast<std::size_t>(size));
    if (fnv1a64(payload.data(), payload.size()) != checksum) return pos;
    // A checksum-valid record with the wrong seq cannot be a torn write;
    // it is logic corruption (reordered or spliced segments).
    if (rec_seq != *seq)
      throw Error("journal: sequence break in " + path + " (record " +
                  std::to_string(rec_seq) + ", expected " +
                  std::to_string(*seq) + ")");
    JournalRecord rec;
    rec.type = type;
    rec.seq = rec_seq;
    rec.payload.assign(payload.data(), payload.size());
    out->push_back(std::move(rec));
    ++*seq;
    pos += kRecordHeaderBytes + static_cast<std::size_t>(size);
  }
  return pos;
}

}  // namespace

std::string journal_segment_path(const std::string& dir,
                                 std::uint64_t index) {
  char name[32];
  std::snprintf(name, sizeof(name), "journal.%06" PRIu64 ".seg", index);
  return dir + "/" + name;
}

JournalReplay replay_journal(const std::string& dir) {
  JournalReplay replay;
  const std::vector<std::uint64_t> indices = segment_indices(dir);
  replay.segments = indices.size();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] != i)
      throw Error("journal: missing segment " + std::to_string(i) + " in " +
                  dir);
    const std::string path = journal_segment_path(dir, indices[i]);
    const std::string bytes = read_file(path);
    const std::size_t valid = parse_segment(path, bytes, indices[i],
                                            &replay.next_seq,
                                            &replay.records);
    if (valid < bytes.size()) {
      if (i + 1 != indices.size())
        throw Error("journal: corrupt record mid-journal in " + path +
                    " at offset " + std::to_string(valid));
      // Final segment: a partially written last record is exactly what a
      // crash mid-append leaves.  Tolerate it; the surviving prefix is the
      // journal.
      replay.torn_tail = true;
      replay.torn_bytes = bytes.size() - valid;
    }
  }
  return replay;
}

JournalWriter::JournalWriter(std::string dir, std::size_t rotate_bytes)
    : dir_(std::move(dir)), rotate_bytes_(rotate_bytes) {
  std::filesystem::create_directories(dir_);
  // A crash during rotation can leave a header temp file behind.
  reclaim_stale_tmp_files(dir_);
  const JournalReplay replay = replay_journal(dir_);
  next_seq_ = replay.next_seq;
  if (replay.segments == 0) {
    open_fresh_segment(0);
    return;
  }
  segment_index_ = replay.segments - 1;
  const std::string path = journal_segment_path(dir_, segment_index_);
  if (replay.torn_tail) {
    // Truncate the garbage tail so appends continue a clean prefix.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - replay.torn_bytes);
    fsync_path(path, /*directory=*/false);
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0)
    throw Error("journal: cannot reopen " + path + ": " +
                std::strerror(errno));
  segment_bytes_ = std::filesystem::file_size(path);
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::open_fresh_segment(std::uint64_t index) {
  const std::string path = journal_segment_path(dir_, index);
  const std::string header = segment_header_bytes(index);
  publish_atomic(path, [&](std::ostream& os) {
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
  });

  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0)
    throw Error("journal: cannot open " + path + ": " + std::strerror(errno));
  segment_index_ = index;
  segment_bytes_ = header.size();
}

std::uint64_t JournalWriter::append(std::uint32_t type,
                                    std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_)
    throw Error("journal: writer poisoned by a torn append; reopen the "
                "journal to truncate the tail");
  if (segment_bytes_ >= rotate_bytes_) open_fresh_segment(segment_index_ + 1);

  const std::uint64_t seq = next_seq_;
  const std::string bytes = record_bytes(type, seq, payload);
  if (g_fault_journal_torn.should_fire()) {
    // Model a crash mid-write: half the record reaches the file, no fsync,
    // and this writer can no longer be trusted to append after garbage.
    const std::size_t half = bytes.size() / 2;
    (void)!::write(fd_, bytes.data(), half);
    poisoned_ = true;
    throw Error("[fault:campaign.journal_torn] journal append torn");
  }
  try {
    write_all_durable(fd_, bytes, journal_segment_path(dir_, segment_index_));
  } catch (...) {
    poisoned_ = true;  // unknown how much hit the file
    throw;
  }
  segment_bytes_ += bytes.size();
  ++next_seq_;
  return seq;
}

std::uint64_t JournalWriter::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

std::uint64_t JournalWriter::segment_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_index_;
}

}  // namespace doseopt::serde
