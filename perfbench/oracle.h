// Output checks for the benchmark's jobs and lookups. Each check returns
// an empty string when the answer is right and a one-line reason when it
// is not; the caller counts a non-empty reason as a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbc/connection.h"

namespace perfbench {

namespace dbc = sqloop::dbc;

/// Absolute tolerance for PageRank ranks and SSSP distances: the engine
/// and the reference sum the same terms in different orders.
inline constexpr double kFloatTolerance = 1e-9;

/// (node, value) rows must cover exactly the expected nodes, each value
/// within `tolerance` of the expected one.
std::string CheckNodeValues(const dbc::ResultSet& result,
                            const std::unordered_map<int64_t, double>& expected,
                            double tolerance);

/// Integer variant (DQ hop counts): values must be equal exactly.
std::string CheckNodeValues(
    const dbc::ResultSet& result,
    const std::unordered_map<int64_t, int64_t>& expected);

/// Rows rendered as sorted text, for bit-identical comparison of a job
/// with its solo run.
std::vector<std::string> Canonical(const dbc::ResultSet& result);

}  // namespace perfbench
