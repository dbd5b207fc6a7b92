//===-- perfbench/cpp/Common.h - Shared benchmark plumbing ------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the parsed command line, the result set a
/// workload fills, the seeded input stream, the timed-window rule, process
/// resource readings and the environment stamp.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Trace.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  /// Length of the measured window.
  double Seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Directory for generated inputs and the trace file.
  std::string OutDir = ".";
  /// Tiny sizes and a short window: checks every workload end to end.
  bool Smoke = false;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// The outcome of one run of one workload.
struct RunResult {
  /// Operations (solves or requests) attempted and failed; a failure is
  /// an error, a shed request or an output that did not check.
  long long Attempted = 0;
  long long Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable context (sample counts, sizes, checks).
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records one checked operation.
  void check(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

/// SplitMix64 stream: every seeded input of a workload is drawn from one
/// of these, so a seed names the same inputs forever.
class SeedStream {
public:
  explicit SeedStream(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi);

private:
  std::uint64_t State;
};

/// The measured window: an operation may start while less than Seconds
/// have passed, or while fewer than MinOps operations have finished (so
/// a statistic has its samples), up to four times Seconds.
class Window {
public:
  Window(double Seconds, std::size_t MinOps)
      : Seconds(Seconds), MinOps(MinOps), Start(now()) {}
  bool more(std::size_t Done) const;

private:
  double Seconds;
  std::size_t MinOps;
  double Start;
};

/// Peak resident set of the process, MiB.
double peakRssMib();
/// User plus system CPU seconds of the process so far.
double cpuSeconds();
/// CPU seconds the hypervisor has stolen from this machine's CPUs since
/// boot (the steal column of /proc/stat); 0 where it cannot be read.
double stealSeconds();

/// FNV-1a over raw bytes, continuing from \p Hash.
std::uint64_t fnv1a(const void *Data, std::size_t Len,
                    std::uint64_t Hash = 0xcbf29ce484222325ull);
inline std::uint64_t fnv1a(std::string_view S) {
  return fnv1a(S.data(), S.size());
}

/// JSON object describing the machine and build: nproc, CPU model, L2 and
/// L3 sizes, compiler, build type, FUPERMOD_NATIVE and the GEMM ISA the
/// micro-kernel dispatcher chose.
std::string environmentJson();

/// Reads a whole file; empty on failure.
std::string readFile(const std::string &Path);
/// Replaces \p Path's contents; false on failure.
bool writeFile(const std::string &Path, const std::string &Text);

/// Formats \p V with \p Digits significant digits (by default all the
/// digits a double carries, as the JSON result needs).
std::string fmt(double V, int Digits = 17);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
