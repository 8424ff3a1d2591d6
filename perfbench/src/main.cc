// perfbench: runs one workload for a fixed time from a seed, checks its
// outputs, and prints its metrics. Usage:
//
//   perfbench --workload datapath-1cpu|datapath-smp|admit-mixed
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]
//             [--inject-fault FAULT_ID]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics (name -> value) and the host and build fingerprint.
// perfbench/run.py turns it into the result line BENCHMARK.json describes.
// Exit status: 0 when every check held, 1 when one failed, 2 on bad usage.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/bench.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "datapath-1cpu|datapath-smp|admit-mixed [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR] "
               "[--inject-fault ID]\n",
               why);
  return 2;
}

const char* DispatchMode() {
  // Mirrors the threaded engine's own selection (src/ebpf/interp_threaded.cc).
#if defined(UNTENABLE_SWITCH_DISPATCH) || \
    !(defined(__GNUC__) || defined(__clang__))
  return "switch";
#else
  return "computed-goto";
#endif
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __VERSION__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return __VERSION__;
#endif
}

std::string Fingerprint() {
  return perfbench::Format(
      "{\"nproc\":%ld,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"dispatch\":\"%s\",\"elide_checks_default\":%s,\"sanitizer\":\"%s\"}",
      sysconf(_SC_NPROCESSORS_ONLN), Compiler(), PERFBENCH_BUILD_TYPE,
      DispatchMode(), ebpf::LoadOptions{}.elide_checks ? "true" : "false",
      Sanitizer());
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      return Usage("flag without a value");
    }
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      config.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      config.seconds = std::strtod(value, nullptr);
    } else if (std::strcmp(flag, "--trace") == 0) {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-dir") == 0) {
      config.trace_dir = value;
    } else if (std::strcmp(flag, "--inject-fault") == 0) {
      config.inject_fault = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!(config.seconds > 0) || config.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }

  RunResult result;
  if (config.workload == "datapath-1cpu") {
    perfbench::RunDatapath(config, 1, result);
  } else if (config.workload == "datapath-smp") {
    perfbench::RunDatapath(config, 3, result);
  } else if (config.workload == "admit-mixed") {
    perfbench::RunAdmitMixed(config, result);
  } else {
    return Usage("unknown workload");
  }
  if (!config.trace) {
    result.metrics["peak_rss_mb"] = perfbench::PeakRssMb();
  }

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("failed_share %.6g\n",
              result.attempted > 0
                  ? static_cast<double>(result.failed) / result.attempted
                  : 0.0);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* separator = "";
  for (const auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) {
      continue;  // an undefined ratio; run.py reports it as absent
    }
    std::printf("%s\"%s\":%.17g", separator, name.c_str(), value);
    separator = ",";
  }
  std::printf("},\"fingerprint\":%s}\n", Fingerprint().c_str());
  return result.correct() ? 0 : 1;
}
