#include "environment.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

#include "fts/common/cpu_info.h"
#include "fts/common/env.h"
#include "fts/common/string_util.h"
#include "fts/cost/cost_profile.h"
#include "fts/perf/perf_counters.h"
#include "oracle.h"

#ifndef FTS_PERFBENCH_BUILD_TYPE
#define FTS_PERFBENCH_BUILD_TYPE ""
#endif
#ifndef FTS_PERFBENCH_SANITIZE
#define FTS_PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

long L3Bytes() {
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes > 0) return bytes;
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  long kib = 0;
  return (in >> kib) ? kib * 1024 : 0;
}

// `name` resolved against PATH (as execvp would), or `name` unchanged.
std::string ResolveOnPath(const std::string& name) {
  if (name.find('/') != std::string::npos) return name;
  std::stringstream path(fts::GetEnvString("PATH", ""));
  std::string dir;
  while (std::getline(path, dir, ':')) {
    const std::string candidate = (dir.empty() ? "." : dir) + "/" + name;
    if (access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return name;
}

std::string CompilerVersion(const std::string& compiler) {
  const std::string command = "'" + compiler + "' -dumpfullversion 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {};
  std::string version;
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) version += buffer;
  pclose(pipe);
  while (!version.empty() && (version.back() == '\n' || version.back() == ' ')) {
    version.pop_back();
  }
  return version.empty() ? "unknown" : version;
}

}  // namespace

std::string BuildRefusal() {
  const std::string_view build_type = FTS_PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    return fts::StrFormat("build type '%s' is not Release or RelWithDebInfo",
                          FTS_PERFBENCH_BUILD_TYPE);
  }
  if (std::string_view(FTS_PERFBENCH_SANITIZE).size() > 0) {
    return fts::StrFormat("sanitizer build (%s)", FTS_PERFBENCH_SANITIZE);
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiled with a sanitizer";
#endif
#ifndef __OPTIMIZE__
  return "compiled without optimization";
#endif
  return "";
}

std::string EnvironmentJson() {
  const std::string compiler =
      ResolveOnPath(fts::GetEnvString("FTS_JIT_CXX", "g++"));
  const std::string profile = fts::cost::CalibratedProfile().Serialize();
  return fts::StrFormat(
      "{\"nproc\":%u,\"l3_bytes\":%ld,\"cpu_features\":%s,"
      "\"pmu_available\":%s,\"jit_compiler\":%s,\"jit_compiler_version\":%s,"
      "\"build_type\":%s,\"sanitize\":%s,\"cost_profile_digest\":\"%016llx\"}",
      std::thread::hardware_concurrency(), L3Bytes(),
      JsonString(fts::GetCpuFeatures().ToString()).c_str(),
      fts::HardwareCountersAvailable() ? "true" : "false",
      JsonString(compiler).c_str(),
      JsonString(CompilerVersion(compiler)).c_str(),
      JsonString(FTS_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(FTS_PERFBENCH_SANITIZE).c_str(),
      static_cast<unsigned long long>(HashText(profile)));
}

double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace perfbench
