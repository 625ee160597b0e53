// Copyright (c) scanshare authors. Licensed under the Apache License 2.0.
//
// scanbench: the repository benchmark binary. One invocation runs one named
// workload and prints, as its last stdout line, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
//   scanbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 runs the
// traced pass and reports the per-layer metrics. Human-readable notes and a
// "host:" line describing the build precede the result line. "correct" is
// false when any answer or gate check failed; the exit status is 0 only when
// no operation failed at all (a shed service job counts as failed). Wall
// metrics are refused (exit 3) from anything but an optimised Release build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.h"

namespace scanbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "scanbench: %s\n"
               "usage: scanbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n"
               "workloads: paper_tput push_2tbl service_open parallel_fit\n",
               why.c_str());
  std::exit(2);
}

bool OptimisedRelease() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return std::strcmp(SCANBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = -1.0;
  if (in) in >> one;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", one);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || seconds <= 0.0) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("bad --trace");
      }
      trace = value[0] - '0';
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == workload;
  if (!known) Usage("unknown workload '" + workload + "'");
  if (seconds <= 0.0 || trace < 0) Usage("--seconds and --trace are required");

  const std::string load = LoadAverage();
  std::printf("host: {\"cores\": %u, \"compiler\": %s, \"build_type\": %s, "
              "\"flags\": %s, \"loadavg_1m_at_start\": %s}\n",
              std::thread::hardware_concurrency(),
              JsonString(SCANBENCH_COMPILER).c_str(),
              JsonString(SCANBENCH_BUILD_TYPE).c_str(),
              JsonString(SCANBENCH_CXX_FLAGS).c_str(), load.c_str());
  if (!OptimisedRelease()) {
    std::fprintf(stderr,
                 "scanbench: refusing to report wall metrics from a '%s' build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                 SCANBENCH_BUILD_TYPE);
    return 3;
  }

  const Report report =
      trace == 1 ? MeasurePerLayer(workload, seed, seconds, spans_path)
                 : MeasureEndToEnd(workload, seed, seconds);

  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("%-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("answers: %llu of %llu checks bit-identical to their reference; "
              "the rest matched within 1e-9 relative (rotated fold order)\n",
              static_cast<unsigned long long>(report.exact),
              static_cast<unsigned long long>(report.attempted));
  const bool correct = report.wrong == 0;
  std::printf("failed_frac %.6f (%llu of %llu attempted)\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  std::string metrics;
  for (const Metric& m : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace scanbench

int main(int argc, char** argv) { return scanbench::Main(argc, argv); }
