// Tests for the binary snapshot layer: byte-stream primitives, round-trip
// fidelity (restored designs time bit-identically), corrupt-input
// rejection (bad magic/version/size/checksum/truncation all fail with a
// clean error, never undefined behavior or a huge allocation), and the
// durable-file primitive's failure path.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "flow/context.h"
#include "gen/design_gen.h"
#include "serde/durable.h"
#include "serde/result_store.h"
#include "serde/snapshot.h"
#include "serde/stream.h"

namespace doseopt {
namespace {

// ---------------------------------------------------------------------------
// Byte-stream primitives.
// ---------------------------------------------------------------------------

TEST(ByteStream, RoundTripsEveryPrimitive) {
  serde::ByteWriter w;
  w.put_u8(0xAB);
  w.put_u32(0xDEADBEEFu);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i32(-12345);
  w.put_f64(-0.1);  // not exactly representable: bit pattern must survive
  w.put_bool(true);
  w.put_string("hello \xE2\x82\xAC");
  w.put_f64_vec({1.5, -2.25, 3.0e-300});
  w.put_u32_vec({7, 0, 42});

  serde::ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i32(), -12345);
  EXPECT_EQ(r.get_f64(), -0.1);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_string(), "hello \xE2\x82\xAC");
  const std::vector<double> f = r.get_f64_vec();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], 1.5);
  EXPECT_EQ(f[1], -2.25);
  EXPECT_EQ(f[2], 3.0e-300);
  const std::vector<std::uint32_t> u = r.get_u32_vec();
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u[2], 42u);
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteStream, TruncatedReadThrows) {
  serde::ByteWriter w;
  w.put_u64(7);
  serde::ByteReader r(std::string_view(w.bytes()).substr(0, 4));
  EXPECT_THROW(r.get_u64(), doseopt::Error);
}

TEST(ByteStream, GarbageCountDoesNotAllocate) {
  // A corrupt length prefix claiming 2^32 elements must throw instead of
  // attempting a gigantic allocation.
  serde::ByteWriter w;
  w.put_u64(0xFFFFFFFFull);
  serde::ByteReader r(w.bytes());
  EXPECT_THROW(r.get_f64_vec(), doseopt::Error);
}

TEST(ByteStream, Fnv1aMatchesKnownVector) {
  // FNV-1a 64 of "a" is a published constant.
  EXPECT_EQ(serde::fnv1a64("a", 1), 0xaf63dc4c8601ec8cull);
}

// ---------------------------------------------------------------------------
// Frame corruption helpers.
// ---------------------------------------------------------------------------

/// `frame` with its header's payload-size field (bytes 12..19) set to
/// `size`.
std::string with_declared_size(std::string frame, std::uint64_t size) {
  for (int i = 0; i < 8; ++i)
    frame[12 + i] = static_cast<char>((size >> (8 * i)) & 0xFF);
  return frame;
}

/// Run `read` in a forked child.  True when it threw doseopt::Error while
/// the child's peak RSS grew by less than 64 MiB (the forked child starts
/// with this test process's resident set, so the growth is what counts).
bool rejects_without_allocating(const std::function<void()>& read) {
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    bool threw = false;
    try {
      read();
    } catch (const Error&) {
      threw = true;
    } catch (...) {
    }
    rusage after{};
    ::getrusage(RUSAGE_SELF, &after);
    const long grown_kib = after.ru_maxrss - before.ru_maxrss;
    ::_exit(threw && grown_kib < 64 * 1024 ? 0 : 1);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

constexpr std::uint64_t k512MiB = 512ull << 20;
constexpr std::uint64_t k2Pow63 = 1ull << 63;

// ---------------------------------------------------------------------------
// Design snapshot round trip.
// ---------------------------------------------------------------------------

void expect_timing_identical(const sta::TimingResult& a,
                             const sta::TimingResult& b) {
  EXPECT_EQ(a.mct_ns, b.mct_ns);
  EXPECT_EQ(a.worst_slack_ns, b.worst_slack_ns);
  EXPECT_EQ(a.worst_hold_slack_ns, b.worst_hold_slack_ns);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].arrival_ns, b.cells[i].arrival_ns) << i;
    EXPECT_EQ(a.cells[i].slack_ns, b.cells[i].slack_ns) << i;
    EXPECT_EQ(a.cells[i].output_slew_ns, b.cells[i].output_slew_ns) << i;
    EXPECT_EQ(a.cells[i].load_ff, b.cells[i].load_ff) << i;
  }
}

TEST(Snapshot, RoundTripReproducesGoldenStaBitForBit) {
  flow::DesignContext original(gen::aes65_spec().scaled(0.03));
  // Fit coefficients so several variant libraries exist in the cache.
  original.coefficients(/*width=*/false);
  const std::size_t variants = original.repo().characterized_count();
  EXPECT_GT(variants, 0u);

  std::stringstream buf;
  serde::write_design_state(buf, original.spec(), original.netlist(),
                            original.placement(), original.repo());

  serde::DesignState state = serde::read_design_state(buf);
  EXPECT_EQ(state.spec.name, original.spec().name);
  EXPECT_EQ(state.repo->characterized_count(), variants);
  // Restored variants are adopted, not re-characterized.
  EXPECT_EQ(state.repo->characterize_calls(), 0u);

  flow::DesignContext restored(std::move(state));
  EXPECT_EQ(restored.nominal_mct_ns(), original.nominal_mct_ns());
  EXPECT_EQ(restored.nominal_leakage_uw(), original.nominal_leakage_uw());
  expect_timing_identical(restored.nominal_timing(),
                          original.nominal_timing());
}

TEST(Snapshot, FileRoundTripAndCorruptionErrors) {
  const std::string path =
      "/tmp/doseopt_test_snapshot_" + std::to_string(::getpid()) + ".snap";
  flow::DesignContext ctx(gen::aes65_spec().scaled(0.02));
  ctx.save_snapshot(path);

  // Clean read works.
  serde::DesignState state = serde::read_design_snapshot(path);
  EXPECT_EQ(state.spec.name, ctx.spec().name);

  // Load the raw bytes for corruption experiments.
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 64u);

  const auto read_from = [](std::string data) {
    std::stringstream ss(std::move(data));
    return serde::read_design_state(ss);
  };

  // Bad magic.
  {
    std::string b = bytes;
    b[0] ^= 0xFF;
    EXPECT_THROW(read_from(b), doseopt::Error);
  }
  // Unsupported version (bytes 8..11).
  {
    std::string b = bytes;
    b[8] = static_cast<char>(99);
    EXPECT_THROW(read_from(b), doseopt::Error);
  }
  // Payload corruption -> checksum mismatch.
  {
    std::string b = bytes;
    b[b.size() / 2] ^= 0x01;
    EXPECT_THROW(read_from(b), doseopt::Error);
  }
  // Truncation mid-payload.
  {
    EXPECT_THROW(read_from(bytes.substr(0, bytes.size() - 16)),
                 doseopt::Error);
  }
  // Trailing garbage after the payload.
  {
    EXPECT_THROW(read_from(bytes + "extra"), doseopt::Error);
  }
  // A size field of 2^63 is a clean doseopt::Error, not std::length_error.
  EXPECT_THROW(read_from(with_declared_size(bytes, k2Pow63)), doseopt::Error);
  // A 512 MiB claim is rejected before the payload is allocated.
  EXPECT_TRUE(rejects_without_allocating(
      [&] { read_from(with_declared_size(bytes, k512MiB)); }));
}

// ---------------------------------------------------------------------------
// Shared content-addressed result store (the fleet's cross-process memo).
// ---------------------------------------------------------------------------

TEST(ResultStore, RoundTripMissesAndCorruptionErrors) {
  const std::string dir =
      "/tmp/doseopt_test_resultstore_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const std::uint64_t key = 0x1234ABCD5678EF90ull;
  const std::string payload = "{\"result\":{\"mct_ns\":1.5,\"ok\":true}}";

  serde::write_result(dir, key, payload);
  // An absent key is a miss, not an error.
  EXPECT_FALSE(serde::read_result(dir, key + 1).has_value());
  const auto got = serde::read_result(dir, key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);

  // Re-publishing identical bytes (the race two workers solving the same
  // job can run) is a clean overwrite, and no temp files linger.
  serde::write_result(dir, key, payload);
  EXPECT_EQ(*serde::read_result(dir, key), payload);
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();

  const std::string path = serde::result_path(dir, key);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  // [8 magic][4 version][8 size][8 checksum][payload]
  ASSERT_EQ(bytes.size(), 28u + payload.size());
  const auto rewrite = [&](const std::string& b) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(b.data(), static_cast<std::streamsize>(b.size()));
  };

  // Bad magic.
  {
    std::string b = bytes;
    b[0] ^= 0xFF;
    rewrite(b);
    EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  }
  // Unsupported version.
  {
    std::string b = bytes;
    b[8] = static_cast<char>(99);
    rewrite(b);
    EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  }
  // Payload corruption -> checksum mismatch.
  {
    std::string b = bytes;
    b[28] ^= 0x01;
    rewrite(b);
    EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  }
  // Truncation mid-payload.
  rewrite(bytes.substr(0, bytes.size() - 4));
  EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  // Trailing garbage after the payload.
  rewrite(bytes + "extra");
  EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  // A size field of 2^63 is a clean doseopt::Error, not std::length_error.
  rewrite(with_declared_size(bytes, k2Pow63));
  EXPECT_THROW(serde::read_result(dir, key), doseopt::Error);
  // A 512 MiB claim in a short record is rejected before the payload is
  // allocated.
  rewrite(with_declared_size(bytes, k512MiB));
  EXPECT_TRUE(
      rejects_without_allocating([&] { serde::read_result(dir, key); }));

  // Quarantine sets the corrupt record aside; the key reads as a miss and
  // the bad bytes survive for post-mortem.
  serde::quarantine_result(dir, key);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_FALSE(serde::read_result(dir, key).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultStore, ReclaimsOnlyTmpFilesOfDeadProcesses) {
  const std::string dir =
      "/tmp/doseopt_test_tmpgc_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // A reaped child's pid is guaranteed dead (kill(pid, 0) -> ESRCH).
  const pid_t dead = ::fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) ::_exit(0);
  int status = 0;
  ASSERT_EQ(::waitpid(dead, &status, 0), dead);

  const auto plant = [&](const std::string& name) {
    std::ofstream os(dir + "/" + name, std::ios::binary);
    os << "partial";
  };
  plant("0123.res.tmp." + std::to_string(dead));          // dead, no seq
  plant("0123.res.tmp." + std::to_string(dead) + ".3");   // dead, with seq
  plant("4567.res.tmp." + std::to_string(::getpid()));    // our own: keep
  plant("89ab.res.tmp.notapid");                          // malformed: keep
  plant("cdef.res");                                      // real record: keep

  EXPECT_EQ(serde::reclaim_stale_tmp_files(dir), 2);
  EXPECT_FALSE(std::filesystem::exists(
      dir + "/0123.res.tmp." + std::to_string(dead)));
  EXPECT_FALSE(std::filesystem::exists(
      dir + "/0123.res.tmp." + std::to_string(dead) + ".3"));
  EXPECT_TRUE(std::filesystem::exists(
      dir + "/4567.res.tmp." + std::to_string(::getpid())));
  EXPECT_TRUE(std::filesystem::exists(dir + "/89ab.res.tmp.notapid"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/cdef.res"));

  // Idempotent, and a missing directory is a no-op, not an error.
  EXPECT_EQ(serde::reclaim_stale_tmp_files(dir), 0);
  EXPECT_EQ(serde::reclaim_stale_tmp_files(dir + "/missing"), 0);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The durable-file primitive.
// ---------------------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool has_tmp_file(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string().find(".tmp.") != std::string::npos)
      return true;
  return false;
}

TEST(Durable, FailedPublishThrowsKeepsTheOldBytesAndLeavesNoTemp) {
  const std::string dir =
      "/tmp/doseopt_test_durable_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // The writer throws part-way.
  const std::string path = dir + "/file";
  serde::publish_atomic(path, [](std::ostream& os) { os << "old bytes"; });
  EXPECT_THROW(serde::publish_atomic(path,
                                     [](std::ostream& os) {
                                       os << "half";
                                       throw Error("writer failed");
                                     }),
               Error);
  EXPECT_EQ(slurp(path), "old bytes");
  EXPECT_FALSE(has_tmp_file(dir));

  // The rename fails: the target is a non-empty directory.
  const std::string target = dir + "/target";
  std::filesystem::create_directories(target);
  {
    std::ofstream os(target + "/old", std::ios::binary);
    os << "old bytes";
  }
  EXPECT_THROW(
      serde::publish_atomic(target, [](std::ostream& os) { os << "new"; }),
      Error);
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_EQ(slurp(target + "/old"), "old bytes");
  EXPECT_FALSE(has_tmp_file(dir));
  EXPECT_FALSE(has_tmp_file(target));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace doseopt
