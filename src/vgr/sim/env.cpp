#include "vgr/sim/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vgr::sim {
namespace {

/// True when `s` is only whitespace from `s` to the end (strtol/strtod stop
/// at the first non-numeric char; trailing blanks are harmless).
bool only_whitespace(const char* s) {
  for (; *s != '\0'; ++s) {
    if (std::isspace(static_cast<unsigned char>(*s)) == 0) return false;
  }
  return true;
}

void warn(const char* name, const char* value, const char* why) {
  std::fprintf(stderr, "vgr: ignoring %s=\"%s\" (%s)\n", name, value, why);
}

void warn_outside(const char* name, const char* value, const Range& range) {
  std::fprintf(stderr, "vgr: ignoring %s=\"%s\" (outside %s)\n", name, value,
               describe_numbers(range).c_str());
}

/// Whole numbers print without a fraction, so ranges read "[0, 1]", not
/// "[0.000000, 1.000000]", and a bound like 1073741823 stays exact.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, v == std::floor(v) ? "%.0f" : "%g", v);
  return buf;
}

/// True when `range` accepts `v`. A clamp_hi range accepts everything above
/// its lo; the caller clamps.
bool in_range(double v, const Range& range) {
  if (range.lo_open ? !(v > range.lo) : !(v >= range.lo)) return false;
  return range.clamp_hi || v <= range.hi;
}

}  // namespace

std::string describe_numbers(const Range& range) {
  const bool has_lo = std::isfinite(range.lo);
  const bool has_hi = std::isfinite(range.hi);
  if (!has_lo && !has_hi) return "any";
  const std::string lo = number(range.lo);
  const std::string hi = number(range.hi);
  const char* at_least = range.lo_open ? ">" : "≥";
  char buf[96];
  if (!has_hi) {
    std::snprintf(buf, sizeof buf, "%s %s", at_least, lo.c_str());
  } else if (!has_lo) {
    std::snprintf(buf, sizeof buf, "≤ %s", hi.c_str());
  } else if (range.clamp_hi) {
    std::snprintf(buf, sizeof buf, "%s %s, clamped to %s", at_least, lo.c_str(), hi.c_str());
  } else {
    std::snprintf(buf, sizeof buf, "%c%s, %s]", range.lo_open ? '(' : '[', lo.c_str(),
                  hi.c_str());
  }
  return buf;
}

namespace detail {

std::optional<long long> read_int(const char* name, const Range& range, double type_lo,
                                  double type_hi) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || errno == ERANGE || !only_whitespace(end)) {
    warn(name, value, "not a number");
    return std::nullopt;
  }
  const auto real = static_cast<double>(v);
  if (real < type_lo || real > type_hi || !in_range(real, range)) {
    warn_outside(name, value, range);
    return std::nullopt;
  }
  return range.clamp_hi && real > range.hi ? static_cast<long long>(range.hi) : v;
}

std::optional<double> read_real(const char* name, const Range& range) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value, &end);
  if (end == value || errno == ERANGE || !only_whitespace(end) || !std::isfinite(v)) {
    warn(name, value, "not a number");
    return std::nullopt;
  }
  if (!in_range(v, range)) {
    warn_outside(name, value, range);
    return std::nullopt;
  }
  return range.clamp_hi ? std::fmin(v, range.hi) : v;
}

std::optional<std::string> read_text(const char* name) {
  std::optional<std::string> value = knob_text(name);
  if (value != "") return value;  // unset, or not empty
  warn(name, "", "empty");
  return std::nullopt;
}

}  // namespace detail

std::optional<std::string> knob_text(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::optional<std::string>{value} : std::nullopt;
}

}  // namespace vgr::sim
