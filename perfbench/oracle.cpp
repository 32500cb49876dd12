#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perfbench {
namespace {

/// Folds each row's (node, numeric value) pair into a map; reports rows
/// that are malformed or repeat a node.
std::string ReadNodeValues(const sqloop::dbc::ResultSet& result,
                           std::unordered_map<int64_t, double>* out) {
  for (const auto& row : result.rows) {
    if (row.size() != 2 || !row[0].is_numeric() || !row[1].is_numeric()) {
      return "malformed row";
    }
    const auto node = static_cast<int64_t>(row[0].NumericAsDouble());
    if (!out->emplace(node, row[1].NumericAsDouble()).second) {
      return "node " + std::to_string(node) + " appears twice";
    }
  }
  return "";
}

template <typename Expected, typename Equal>
std::string Compare(const sqloop::dbc::ResultSet& result,
                    const std::unordered_map<int64_t, Expected>& expected,
                    Equal equal) {
  std::unordered_map<int64_t, double> got;
  if (auto error = ReadNodeValues(result, &got); !error.empty()) return error;
  if (got.size() != expected.size()) {
    return std::to_string(got.size()) + " nodes, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [node, want] : expected) {
    const auto it = got.find(node);
    if (it == got.end()) return "node " + std::to_string(node) + " missing";
    if (!equal(it->second, want)) {
      std::ostringstream reason;
      reason.precision(17);
      reason << "node " << node << ": " << it->second << ", expected "
             << want;
      return reason.str();
    }
  }
  return "";
}

}  // namespace

std::string CheckNodeValues(const sqloop::dbc::ResultSet& result,
                            const std::unordered_map<int64_t, double>& expected,
                            double tolerance) {
  return Compare(result, expected, [tolerance](double got, double want) {
    return std::fabs(got - want) <= tolerance;
  });
}

std::string CheckNodeValues(
    const sqloop::dbc::ResultSet& result,
    const std::unordered_map<int64_t, int64_t>& expected) {
  return Compare(result, expected, [](double got, int64_t want) {
    return got == static_cast<double>(want);
  });
}

std::vector<std::string> Canonical(const sqloop::dbc::ResultSet& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string text;
    for (const auto& value : row) {
      text += value.ToString();
      text += '|';
    }
    rows.push_back(std::move(text));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace perfbench
