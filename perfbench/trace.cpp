#include "trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "stats.h"

namespace perfbench {
namespace {

const auto kEpoch = std::chrono::steady_clock::now();

/// Trace-viewer rows for worker threads start here, after the rows the
/// benchmark's own threads and jobs use.
constexpr int64_t kWorkerRowBase = 1000000;

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

uint64_t Tracer::Add(std::string name, double start, double end,
                     uint64_t parent, uint64_t job, int64_t tid) {
  if (!enabled_) return 0;
  const std::scoped_lock lock(mutex_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), start, end, id, parent, job, tid});
  return id;
}

void Tracer::SetEnd(uint64_t id, double end) {
  if (!enabled_) return;
  const std::scoped_lock lock(mutex_);
  spans_.at(id - 1).end = end;
}

void Tracer::AddTaskSpans(
    const std::vector<sqloop::telemetry::TaskSpan>& spans, double base,
    uint64_t parent, uint64_t job) {
  if (!enabled_) return;
  const std::scoped_lock lock(mutex_);
  for (const auto& task : spans) {
    const auto row = worker_rows_
                         .emplace(task.thread_id,
                                  kWorkerRowBase +
                                      static_cast<int64_t>(worker_rows_.size()))
                         .first;
    const double start = base + task.start_seconds;
    spans_.push_back({std::string("core.") +
                          sqloop::telemetry::SpanKindName(task.kind),
                      start, start + task.duration_seconds,
                      spans_.size() + 1, parent, job, row->second});
  }
}

void Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata) const {
  const std::scoped_lock lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
      << ",\"traceEvents\":[";
  bool first = true;
  for (const auto& span : spans_) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                  span.start * 1e6, (span.end - span.start) * 1e6);
    out << (first ? "" : ",") << "\n{\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"" << JsonEscape(layer) << "\",\"ph\":\"X\","
        << times << ",\"pid\":1,\"tid\":" << span.tid
        << ",\"args\":{\"span_id\":" << span.id
        << ",\"parent_id\":" << span.parent << ",\"job_id\":" << span.job
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::string Tracer::SelfTimeTable() const {
  const std::scoped_lock lock(mutex_);
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  struct Totals {
    uint64_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Totals> by_name;
  for (const auto& span : spans_) {
    auto& totals = by_name[span.name];
    const double duration = span.end - span.start;
    const auto it = children.find(span.id);
    const double covered =
        it == children.end()
            ? 0
            : CoveredLength(it->second, span.start, span.end);
    ++totals.count;
    totals.total += duration;
    totals.self += duration - covered;
  }
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %8s %12s %12s\n", "span", "count",
                "total_s", "self_s");
  table << line;
  for (const auto& [name, totals] : by_name) {
    std::snprintf(line, sizeof(line), "%-22s %8llu %12.6f %12.6f\n",
                  name.c_str(), static_cast<unsigned long long>(totals.count),
                  totals.total, totals.self);
    table << line;
  }
  return table.str();
}

}  // namespace perfbench
