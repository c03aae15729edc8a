// Durable files: the one implementation of the on-disk writes the serving
// stack, the fleet and the campaigns trust after a crash.
//
// publish_atomic streams a file into "<path>.tmp.<pid>.<seq>", fsyncs it,
// renames it over <path> and fsyncs the directory: a killed process or a
// power cut leaves the old file or the new one, never a torn mix, plus at
// most a dead pid's temp that reclaim_stale_tmp_files removes.
//
// The frame codec is the checksummed header of snapshots and result
// records:
//
//   [ 8 bytes magic ][ u32 version ][ u64 payload size ]
//   [ u64 FNV-1a checksum of payload ][ payload bytes ]
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace doseopt::serde {

/// fsync `path` through a fresh descriptor (`directory`: open it as a
/// directory, to make its entries durable).  Throws doseopt::Error.
void fsync_path(const std::string& path, bool directory);

/// Write all of `bytes` to `fd` (retrying short writes and EINTR), then
/// fsync it.  `what` names the file in errors.  Throws doseopt::Error.
void write_all_durable(int fd, std::string_view bytes,
                       const std::string& what);

/// Append `bytes` to `path` (created if missing) with O_APPEND, then fsync.
/// Short appends from several processes stay whole lines.  Throws
/// doseopt::Error.
void append_durable(const std::string& path, std::string_view bytes);

/// Atomically replace `path` with the bytes `writer` streams.  Any failure,
/// including an exception from `writer`, removes the temp and throws; the
/// old file is never touched before the rename.
void publish_atomic(const std::string& path,
                    const std::function<void(std::ostream&)>& writer);

/// Move a corrupt file aside to "<path>.corrupt" for post-mortem, deleting
/// it when the rename fails.  Never throws.
void quarantine(const std::string& path);

/// Delete orphaned "<name>.tmp.<pid>[.<seq>]" files left in `dir` by a
/// process that died between write and rename.  Only files whose embedded
/// pid is provably dead (and not our own) are removed -- a live writer's
/// in-flight temp file is never touched.  Returns the number of files
/// reclaimed; never throws, no-op on a missing directory.
int reclaim_stale_tmp_files(const std::string& dir);

/// Write one frame (header + payload) to `os`; returns the payload
/// checksum.  `magic` must be 8 bytes.  Throws doseopt::Error when the
/// stream fails.
std::uint64_t write_frame(std::ostream& os, std::string_view magic,
                          std::uint32_t version, std::string_view payload);

/// Read one frame that must span the rest of `is` and return its payload.
/// Throws doseopt::Error, prefixed by `what`, on bad magic, another
/// version, a truncated header, a declared size other than the bytes left
/// (checked before allocating), or a checksum mismatch.
std::string read_frame(std::istream& is, std::string_view magic,
                       std::uint32_t version, const std::string& what);

}  // namespace doseopt::serde
