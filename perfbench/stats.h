// Order statistics and interval arithmetic shared by the benchmark's
// metric and trace code.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t low = static_cast<size_t>(std::floor(rank));
  const size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Max(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
inline double CoveredLength(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

}  // namespace perfbench
