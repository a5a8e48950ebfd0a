/**
 * @file
 * Shared plumbing of the benchmark program: run options, timing helpers,
 * order statistics, and the result record every workload fills in and
 * main() prints as the final JSON line.
 */
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Command-line options of one run. */
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /** Length of the measured phase, in seconds. */
  double seconds = 10.0;
  /** Directory for the run's scratch files (corpora, bundles, CSVs). */
  std::string workdir = ".";
};

/** Seconds / milliseconds elapsed between two time points. */
double SecondsBetween(Clock::time_point begin, Clock::time_point end);
double MsBetween(Clock::time_point begin, Clock::time_point end);

/** Median of `values` (0 for an empty list). */
double Median(std::vector<double> values);

/** Linearly interpolated quantile `q` in [0, 1] of `values`. */
double Quantile(std::vector<double> values, double q);

/** Minor page faults of this process so far (getrusage). */
std::uint64_t MinorFaults();

/** Peak resident set size of this process in MB (getrusage). */
double PeakRssMb();

/** One reported number and its unit. */
struct Metric {
  double value = 0.0;
  std::string unit;
};

/**
 * What a workload run produced: operation accounting, its end-to-end
 * metrics, and (in a traced run) its per-layer metrics.
 */
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;

  /** Records a correctness check as one attempted operation; a failed
   * one is reported on stderr, counted as failed and makes the run
   * incorrect. */
  void Check(bool ok, const std::string& what);
};

/** Runs `setup` once and returns its duration in seconds. A run's
 * setup_s is the median over its worker processes (see run.py). */
template <typename SetupFn>
double TimedSetup(SetupFn&& setup) {
  const Clock::time_point start = Clock::now();
  setup();
  return SecondsBetween(start, Clock::now());
}

/**
 * Operations a measured phase performs: `ops_per_second` (the rate the
 * operation runs at on the reference host, see README.md) times
 * --seconds, at least `minimum`. Runs do a fixed amount of work rather
 * than stopping at a deadline, so two runs of one seed perform the same
 * operations and allocations however fast the host happens to be; the
 * phase lasts about --seconds on the reference host.
 */
int OpsFor(const Options& options, double ops_per_second, int minimum = 1);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
