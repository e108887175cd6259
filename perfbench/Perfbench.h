//===- Perfbench.h - adebench shared declarations ---------------*- C++ -*-===//
//
// Part of the ADE reproduction project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// adebench's workloads write raw samples (one value per
/// measured repetition) and deterministic counts into a \c Report, which
/// adebench.cpp prints as one JSON document. run.py pools the documents of
/// several adebench processes and derives the metrics from them, so medians
/// are taken across processes, not only across repetitions of one.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// What one measurement process measures.
struct Options {
  uint64_t Seed = 0;
  /// Which of the seed's input draws a suite process runs (the processes
  /// of one benchmark run each take their own, so a run averages over
  /// several inputs). Seed 0 always means the registry's inputs.
  uint64_t Draw = 0;
  /// Wall-clock budget of the timed loop in seconds.
  double Seconds = 5;
  /// Attach the per-layer sensors (telemetry, flight recorder) in a pass
  /// after the untraced one, and emit the per-layer numbers.
  bool Trace = false;
  /// Suite programs, by registry abbreviation.
  std::vector<std::string> Programs;
  /// Expected @kernel checksums; programs missing here get theirs from a
  /// tree-walker reference run.
  std::map<std::string, uint64_t> Expected;
  /// Interpreter call-depth budget of every suite run; lowering it plants
  /// failures for the benchmark's own tests.
  uint64_t MaxDepth = 4096;
};

/// Everything one measurement process measured.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  /// Named sample lists (seconds unless the name says otherwise).
  std::map<std::string, std::vector<double>> Samples;
  /// Deterministic counts; each must repeat exactly between runs.
  std::map<std::string, uint64_t> Counts;
  /// Other per-layer values (timings, shares) of this process.
  std::map<std::string, double> Layer;

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(std::move(Why));
  }
  void sample(const std::string &Name, double V) {
    Samples[Name].push_back(V);
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

/// Seconds one pass of a fixed kernel takes: hash-map inserts and lookups
/// over 32Ki keys plus an arithmetic loop, in benchmark-owned code that no
/// change to the repository can move. The shared host's speed drifts by
/// tens of percent within minutes; run.py scales each process's times by
/// this kernel's speed on that process (see README.md).
double calibrationSeconds();

/// Prints "<abbrev> <checksum>" per program: the tree-walker running the
/// un-enumerated module on the seed's (and draw's) inputs.
int runReference(const Options &Opt);

/// Checks that the benchmark's input recipes draw exactly the registry's
/// inputs at the registry's seeds; returns the number of mismatches.
int checkInputs();

void runSuite(const Options &Opt, Report &R);
void runServe(const Options &Opt, Report &R);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
