// Shared content-addressed store of memoized job-result documents.
//
// One file per result, named by the job's 64-bit FNV-1a content hash, so
// every process in a serving fleet -- N workers plus their respawned
// replacements -- reads and writes the same store: a 0.1 ms memoized hit
// survives the death of the worker that computed it.  A record is one
// durable.h frame (magic "DOSERES1") around the result JSON, published
// with publish_atomic; two workers solving the same job concurrently
// publish bit-identical bytes and the second rename is a no-op overwrite.
// Corruption throws doseopt::Error so the caller can quarantine the file
// and fall back to a recompute (deterministic, hence bit-identical).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace doseopt::serde {

/// Current result-record format version.
inline constexpr std::uint32_t kResultStoreVersion = 1;

/// Path of the record for `key` inside `dir` ("<dir>/<key-hex>.res").
std::string result_path(const std::string& dir, std::uint64_t key);

/// Publish `payload` as the record for `key` (publish_atomic).  Creates
/// `dir` if missing.  Throws doseopt::Error on I/O failure.
void write_result(const std::string& dir, std::uint64_t key,
                  std::string_view payload);

/// Fetch the record for `key`.  Returns nullopt when no record exists;
/// throws doseopt::Error on a corrupt record (read_frame) or an injected
/// fleet.cache_corrupt fault -- callers quarantine and treat the key as a
/// miss.
std::optional<std::string> read_result(const std::string& dir,
                                       std::uint64_t key);

/// quarantine() the record for `key`.  Never throws.
void quarantine_result(const std::string& dir, std::uint64_t key);

}  // namespace doseopt::serde
