#include "host.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "ml/simd.hpp"

#ifndef NMBENCH_BUILD_TYPE
#define NMBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench::host {

Stamp stamp() {
  Stamp s;
  s.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value = colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && s.cpu_model.empty()) s.cpu_model = value;
    if (key == "flags") {
      std::istringstream flags(" " + value + " ");
      std::string flag;
      while (flags >> flag) {
        s.avx2 = s.avx2 || flag == "avx2";
        s.fma = s.fma || flag == "fma";
      }
      break;
    }
  }
  s.simd_arm = nevermind::ml::simd::kernel_name(
      nevermind::ml::simd::active_kernel());
#if defined(__clang__)
  s.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  s.compiler = "gcc " __VERSION__;
#else
  s.compiler = "unknown";
#endif
  s.build_type = NMBENCH_BUILD_TYPE;
  return s;
}

std::string timing_refusal() {
#if !defined(__OPTIMIZE__)
  return "this build has no optimization (__OPTIMIZE__ undefined); "
         "configure with -DCMAKE_BUILD_TYPE=Release";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "this build carries a sanitizer; time a plain Release build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "this build carries a sanitizer; time a plain Release build";
#else
  return {};
#endif
#else
  return {};
#endif
}

std::string to_json(const Stamp& s) {
  const auto quoted = [](const std::string& v) {
    std::string out = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  std::ostringstream os;
  os << "{\"nproc\": " << s.nproc << ", \"cpu_model\": " << quoted(s.cpu_model)
     << ", \"avx2\": " << (s.avx2 ? "true" : "false")
     << ", \"fma\": " << (s.fma ? "true" : "false")
     << ", \"simd_arm\": " << quoted(s.simd_arm)
     << ", \"compiler\": " << quoted(s.compiler)
     << ", \"build_type\": " << quoted(s.build_type) << "}";
  return os.str();
}

}  // namespace perfbench::host
