#include "serde/result_store.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "faultinject/fault.h"
#include "serde/durable.h"

namespace doseopt::serde {

namespace {

faultinject::FaultPoint g_fault_cache_corrupt("fleet.cache_corrupt");

constexpr std::string_view kMagic = "DOSERES1";

}  // namespace

std::string result_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016" PRIx64 ".res", key);
  return dir + "/" + name;
}

void write_result(const std::string& dir, std::uint64_t key,
                  std::string_view payload) {
  std::filesystem::create_directories(dir);
  publish_atomic(result_path(dir, key), [&](std::ostream& os) {
    write_frame(os, kMagic, kResultStoreVersion, payload);
  });
}

std::optional<std::string> read_result(const std::string& dir,
                                       std::uint64_t key) {
  const std::string path = result_path(dir, key);
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  faultinject::maybe_throw(g_fault_cache_corrupt, "result cache read");
  return read_frame(is, kMagic, kResultStoreVersion, "result store " + path);
}

void quarantine_result(const std::string& dir, std::uint64_t key) {
  quarantine(result_path(dir, key));
}

}  // namespace doseopt::serde
