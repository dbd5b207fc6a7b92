//===-- perfbench/cpp/Trace.h - In-memory span recorder ---------*- C++ -*-===//
//
// Part of the FuPerMod reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans around the benchmark's calls into the program's layers. A span
/// records its name, start, end, parent span and the id of the solve or
/// request it belongs to. Spans stay in memory while the workload runs
/// and are written once, at exit, as Chrome trace-event JSON (opens in
/// Perfetto or chrome://tracing).
///
/// The recorder is driven from one thread: a span opened while another is
/// open becomes its child. A disabled recorder records nothing, so the
/// untraced run pays one branch per would-be span.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock.
double now();

struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  /// Index of the enclosing span, -1 for a root span.
  int Parent = -1;
  /// Solve or request id the span serves (-1 for set-up work).
  std::int64_t OpId = -1;

  double duration() const { return End - Start; }
};

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  /// Turns recording on or off for the spans opened from now on.
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int begin(const char *Name, std::int64_t OpId);
  /// Closes span \p Id (a no-op for -1).
  void end(int Id);
  /// Adds an already finished span (one built elsewhere, or by a test);
  /// returns its index. Parent must index an earlier span or be -1.
  int record(Span S);

  /// Closes its span when it goes out of scope.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, std::int64_t OpId)
        : T(T), Id(T.begin(Name, OpId)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Durations of every closed span called \p Name.
  std::vector<double> durations(const std::string &Name) const;

  /// Every span's self time (its duration minus the part of it its
  /// children cover), indexed like spans().
  std::vector<double> selfTimes() const;

  /// Writes every span as Chrome trace-event JSON ("X" events in
  /// microseconds, with parent and op id as args). Returns false when the
  /// file cannot be written.
  bool writeChromeJson(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  /// Indices of the open spans, innermost last.
  std::vector<int> Open;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
