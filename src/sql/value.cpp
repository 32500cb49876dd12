#include "sql/value.h"

#include <cmath>
#include <cstdio>
#include <limits>

namespace sqloop {

const char* ValueTypeName(ValueType type) noexcept {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "BIGINT";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kText:
      return "TEXT";
  }
  return "?";
}

bool operator==(const Value& a, const Value& b) noexcept {
  if (a.is_null() || b.is_null()) return false;
  return Value::Compare(a, b) == 0;
}

int Value::Compare(const Value& a, const Value& b) noexcept {
  const auto rank = [](const Value& v) {
    if (v.is_null()) return 0;
    if (v.is_numeric()) return 1;
    return 2;
  };
  const int ra = rank(a);
  const int rb = rank(b);
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (ra) {
    case 0:
      return 0;
    case 1: {
      if (a.is_int() && b.is_int()) {
        const int64_t x = a.as_int();
        const int64_t y = b.as_int();
        return x < y ? -1 : (x > y ? 1 : 0);
      }
      const double x = a.NumericAsDouble();
      const double y = b.NumericAsDouble();
      if (x < y) return -1;
      if (x > y) return 1;
      return 0;
    }
    default: {
      const int c = a.as_text().compare(b.as_text());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

bool Value::KeyEquals(const Value& a, const Value& b) noexcept {
  if (a.is_null() && b.is_null()) return true;
  if (a.is_null() || b.is_null()) return false;
  return Compare(a, b) == 0;
}

size_t Value::Hash() const noexcept {
  if (is_null()) return 0x9E3779B97F4A7C15ULL;
  if (is_numeric()) {
    // Ints and integral doubles must hash alike because Compare treats
    // them as equal across representations.
    const double d = NumericAsDouble();
    if (is_int() || (std::floor(d) == d && std::isfinite(d) &&
                     std::abs(d) < 9.2e18)) {
      const auto i = is_int() ? as_int() : static_cast<int64_t>(d);
      return std::hash<int64_t>{}(i) ^ 0x517CC1B727220A95ULL;
    }
    return std::hash<double>{}(d) ^ 0x517CC1B727220A95ULL;
  }
  return std::hash<std::string>{}(as_text());
}

std::string Value::ToSqlLiteral() const {
  if (is_null()) return "NULL";
  if (is_text()) {
    std::string out = "'";
    for (const char c : as_text()) {
      if (c == '\'') out += "''";
      else out += c;
    }
    out += '\'';
    return out;
  }
  std::string out = ToString();
  // "%.17g" prints integral doubles (-0.0 included) without a decimal
  // point, and the parser would read that text back as a BIGINT.
  if (is_double() &&
      out.find_first_not_of("-0123456789") == std::string::npos) {
    out += ".0";
  }
  return out;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    const double d = as_double();
    if (std::isinf(d)) return d > 0 ? "Infinity" : "-Infinity";
    if (std::isnan(d)) return "NaN";
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", d);
    return buffer;
  }
  return as_text();
}

}  // namespace sqloop
