// The benchmark's own spans: kept in memory while a traced run executes
// and written at its end as a Chrome trace-event file (chrome://tracing,
// Perfetto). A span's name starts with the module it times ("graph.",
// "core.", "dbc.", "server.", "bench."); spans of one job share its id.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/recorder.h"

namespace perfbench {

/// Seconds on the steady clock since the process started; every timing
/// in the benchmark, traced or not, is taken with it.
double Now();

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t job = 0;     // 0 = not part of a job
  int64_t tid = 0;      // trace-viewer row
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Records one span and returns its id (0 when tracing is off).
  /// Thread-safe.
  uint64_t Add(std::string name, double start, double end,
               uint64_t parent = 0, uint64_t job = 0, int64_t tid = 0);

  /// Sets the end of a span recorded before its end was known.
  void SetEnd(uint64_t id, double end);

  /// Nests a job's TaskSpans under `parent`. Their offsets are relative
  /// to the start of the job's execution, which began at `base`.
  void AddTaskSpans(const std::vector<sqloop::telemetry::TaskSpan>& spans,
                    double base, uint64_t parent, uint64_t job);

  /// Writes every span as a Chrome trace-event JSON object; `metadata` is
  /// a JSON object stored under "otherData".
  void WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

  /// Per span name: count, total seconds and self seconds (duration minus
  /// the part of it that its child spans cover), one line each.
  std::string SelfTimeTable() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<uint64_t, int64_t> worker_rows_;  // TaskSpan thread -> row
};

}  // namespace perfbench
