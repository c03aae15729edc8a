#include "serde/durable.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.h"
#include "serde/stream.h"

namespace doseopt::serde {

namespace {

constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 8 + 8;

std::string errno_text() { return std::strerror(errno); }

/// Directory part of `path` ("." when none).
std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".")
                                    : path.substr(0, slash);
}

/// Bytes between the read position of `is` and its end.
std::uint64_t bytes_left(std::istream& is, const std::string& what) {
  const std::istream::pos_type here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (here == std::istream::pos_type(-1) ||
      end == std::istream::pos_type(-1) || !is)
    throw Error(what + ": cannot size the input stream");
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

void fsync_path(const std::string& path, bool directory) {
  const int fd = ::open(path.c_str(),
                        directory ? (O_RDONLY | O_DIRECTORY) : O_WRONLY);
  if (fd < 0)
    throw Error("durable: open for fsync failed: " + path + ": " +
                errno_text());
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0)
    throw Error("durable: fsync failed: " + path + ": " + std::strerror(err));
}

void write_all_durable(int fd, std::string_view bytes,
                       const std::string& what) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("durable: write failed: " + what + ": " + errno_text());
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  if (::fsync(fd) != 0)
    throw Error("durable: fsync failed: " + what + ": " + errno_text());
}

void append_durable(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0)
    throw Error("durable: cannot open " + path + ": " + errno_text());
  try {
    write_all_durable(fd, bytes, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void publish_atomic(const std::string& path,
                    const std::function<void(std::ostream&)>& writer) {
  // Unique per process and per call; reclaim_stale_tmp_files parses it.
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  try {
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os) throw Error("durable: cannot open " + tmp + " for writing");
      writer(os);
      os.close();
      if (!os) throw Error("durable: write to " + tmp + " failed");
    }
    fsync_path(tmp, /*directory=*/false);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw Error("durable: rename to " + path + " failed: " + errno_text());
  } catch (...) {
    ::unlink(tmp.c_str());  // never leave a known-bad temp behind
    throw;
  }
  fsync_path(dir_of(path), /*directory=*/true);
}

void quarantine(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".corrupt", ec);
  if (ec) std::filesystem::remove(path, ec);
}

int reclaim_stale_tmp_files(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return 0;
  int reclaimed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    // Match "<base>.tmp.<pid>" and "<base>.tmp.<pid>.<seq>".
    const std::size_t at = name.rfind(".tmp.");
    if (at == std::string::npos) continue;
    const std::string suffix = name.substr(at + 5);
    const std::size_t dot = suffix.find('.');
    const std::string pid_str = suffix.substr(0, dot);
    if (pid_str.empty() ||
        pid_str.find_first_not_of("0123456789") != std::string::npos)
      continue;
    if (dot != std::string::npos) {
      const std::string seq_str = suffix.substr(dot + 1);
      if (seq_str.empty() ||
          seq_str.find_first_not_of("0123456789") != std::string::npos)
        continue;
    }
    const long pid = std::strtol(pid_str.c_str(), nullptr, 10);
    if (pid <= 0 || pid == static_cast<long>(::getpid())) continue;
    // kill(pid, 0) probes liveness: ESRCH means the writer is gone and its
    // temp file can never be renamed into place.  EPERM means alive (owned
    // by someone else) -- leave it.
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    std::error_code rm_ec;
    if (std::filesystem::remove(entry.path(), rm_ec)) ++reclaimed;
  }
  return reclaimed;
}

std::uint64_t write_frame(std::ostream& os, std::string_view magic,
                          std::uint32_t version, std::string_view payload) {
  DOSEOPT_CHECK(magic.size() == 8, "frame magic must be 8 bytes");
  const std::uint64_t checksum = fnv1a64(payload.data(), payload.size());
  ByteWriter header;
  for (const char c : magic) header.put_u8(static_cast<std::uint8_t>(c));
  header.put_u32(version);
  header.put_u64(payload.size());
  header.put_u64(checksum);
  os.write(header.bytes().data(),
           static_cast<std::streamsize>(header.bytes().size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!os) throw Error("frame: stream write failed");
  return checksum;
}

std::string read_frame(std::istream& is, std::string_view magic,
                       std::uint32_t version, const std::string& what) {
  DOSEOPT_CHECK(magic.size() == 8, "frame magic must be 8 bytes");
  char header[kFrameHeaderBytes] = {};
  is.read(header, sizeof(header));
  const auto got = static_cast<std::size_t>(is.gcount());
  if (got < 8 || std::memcmp(header, magic.data(), 8) != 0)
    throw Error(what + ": bad magic");
  if (got != sizeof(header)) throw Error(what + ": truncated header");
  ByteReader hr(std::string_view(header + 8, sizeof(header) - 8));
  const std::uint32_t got_version = hr.get_u32();
  if (got_version != version)
    throw Error(what + ": unsupported version " + std::to_string(got_version) +
                " (expected " + std::to_string(version) + ")");
  const std::uint64_t size = hr.get_u64();
  const std::uint64_t checksum = hr.get_u64();

  // Size the claim against the input before allocating for it: a corrupt
  // size field must cost an error, not its value in memory.
  const std::uint64_t left = bytes_left(is, what);
  if (size > left)
    throw Error(what + ": truncated payload (header declares " +
                std::to_string(size) + " bytes, " + std::to_string(left) +
                " remain)");
  if (left > size) throw Error(what + ": trailing bytes after payload");
  std::string payload(static_cast<std::size_t>(size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size)
    throw Error(what + ": truncated payload");
  if (fnv1a64(payload.data(), payload.size()) != checksum)
    throw Error(what + ": checksum mismatch");
  return payload;
}

}  // namespace doseopt::serde
