/**
 * @file
 * Benchmark program entry point.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--workdir DIR]
 *
 * Runs one workload in this process and prints, as the last line of
 * standard output, one JSON object: {"correct", "attempted", "failed",
 * "metrics"}. An untraced run (--trace 0) reports the end-to-end metrics.
 * A traced run (--trace 1) measures the workload twice for S/2 seconds
 * each, first untraced and then with every layer probe installed, and
 * reports the per-layer metrics of the second half plus the
 * traced/untraced ratio of each end-to-end metric (overhead.*) as the
 * tracing overhead. Progress and diagnostics go to standard error.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "ml/kernels/kernel_backend.h"
#include "probes.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  WorkloadFn run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"train_b100", RunTrainB100},
    {"serve_open", RunServeOpen},
    {"autotune_beam", RunAutotuneBeam},
    {"import_stream", RunImportStream},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_b100|serve_open|autotune_beam|import_stream --seed N "
               "--seconds S --trace 0|1 [--workdir DIR]\n",
               message);
  std::exit(2);
}

void PrintJson(const Outcome& outcome,
               const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1)) {
    Usage("--seed, --seconds and --trace 0|1 are required");
  }
  if (!(options.seconds > 0.0)) Usage("--seconds must be positive");
  WorkloadFn run = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) run = entry.run;
  }
  if (run == nullptr) Usage(("unknown workload " + options.workload).c_str());

  if (trace == 0) {
    Outcome outcome = run(options, nullptr);
    outcome.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MB"};
    PrintJson(outcome, outcome.end_to_end);
    return 0;
  }

  Options half = options;
  half.seconds = options.seconds / 2.0;
  const Outcome plain = run(half, nullptr);
  granite::ml::SetDefaultKernelBackend(nullptr);
  TimingBackend kernels(&granite::ml::DefaultKernelBackend());
  granite::ml::SetDefaultKernelBackend(&kernels);
  Outcome traced = run(half, &kernels);
  granite::ml::SetDefaultKernelBackend(nullptr);

  traced.correct = traced.correct && plain.correct;
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  for (const auto& [name, metric] : plain.end_to_end) {
    const auto it = traced.end_to_end.find(name);
    if (it == traced.end_to_end.end() || metric.value == 0.0) continue;
    traced.layers["overhead." + name] = {it->second.value / metric.value,
                                         "ratio"};
  }
  PrintJson(traced, traced.layers);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: fatal: %s\n", error.what());
    return 1;
  }
}
