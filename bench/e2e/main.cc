/// bench_e2e: the end-to-end benchmark.
///
///   bench_e2e --workload hot_read|churn_write|batch_fanout|sharded_read|all
///             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
///             [--work-dir DIR]
///
/// Prints every metric the run measured as "workload metric value unit",
/// then one JSON line {"correct", "attempted", "failed", "metrics"}.
/// With --trace 0 the JSON carries the end-to-end metrics, and the lines
/// also give the untraced op.* timings; with --trace 1 it carries the
/// per-layer ones (and the spans go to DIR/trace-<workload>.jsonl).
/// "all" runs each workload in its own child process. Exits 1 when a
/// checked output disagrees with brute force, 2 on bad arguments.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace sargus::e2e {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Report*);
};

constexpr Workload kWorkloads[] = {
    {"hot_read", RunHotRead},
    {"churn_write", RunChurnWrite},
    {"batch_fanout", RunBatchFanout},
    {"sharded_read", RunShardedRead},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "hot_read|churn_write|batch_fanout|sharded_read|all "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs one workload in this process and prints its results.
int RunOne(const Workload& w, const Options& options) {
  Report report;
  w.run(options, &report);
  report.Set("peak_rss_mb", PeakRssMiB());

  for (const auto& [name, v] : report.values) {
    std::printf("%s %s %.10g %s\n", w.name, name.c_str(), v,
                FindMetric(name)->unit);
  }
  const auto& table = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json;
  for (const MetricDef& m : table) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : report.values) {
      if (name == m.name) {
        value = v;
        found = true;
      }
    }
    if (!found && !options.trace) {
      report.Mismatch(std::string(m.name) + " was not measured");
    }
    if (!std::isfinite(value)) value = 0.0;
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, value, m.unit);
    json += entry;
  }
  for (const auto& [name, n] : report.samples) {
    std::printf("%s %s_samples %llu count\n", w.name, name.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

/// Runs `w` in a child process, so its peak RSS and caches are its own.
int RunChild(const Workload& w, const Options& options) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("bench_e2e: fork");
    return 2;
  }
  if (pid == 0) _exit(RunOne(w, options));
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) return 2;
  return WEXITSTATUS(status);
}

int Main(int argc, char** argv) {
  Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* rest = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &rest, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &rest);
      if (!(options.seconds > 0.0)) return Usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) {
        return Usage("--trace takes 0 or 1");
      }
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (rest != nullptr && *rest != '\0') {
      return Usage(("bad value for " + arg).c_str());
    }
  }
  if (options.work_dir.empty()) options.work_dir = ".bench_build/e2e";
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  int code = -1;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) return RunOne(w, options);
    if (workload == "all") code = std::max(code, RunChild(w, options));
  }
  return code >= 0 ? code : Usage(("unknown workload " + workload).c_str());
}

}  // namespace
}  // namespace sargus::e2e

int main(int argc, char** argv) { return sargus::e2e::Main(argc, argv); }
