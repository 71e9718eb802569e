#pragma once

#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>

#include "vgr/sim/time.hpp"

namespace vgr::sim {

/// Validated reading of the VGR_* environment knobs.
///
/// Every config a knob reaches lists its knobs once, in a
/// `for_each_knob(fn, config)` next to the config, calling
/// `fn(name, field, range)` per knob (scenario::HighwayConfig,
/// scenario::Fidelity, sweep::SupervisorConfig). read_knobs() walks such a
/// list; the knob test walks it against the docs tables.
///
/// A value is parsed whole-token: "5x", "abc", "" and non-finite values are
/// rejected instead of being read as a prefix or as 0. A number outside its
/// range, or outside what the field's type holds, is rejected too. Either
/// way the field keeps its value and one line on stderr names the variable,
/// so a typo in a 100-run invocation is caught before the results are
/// wasted. An unset variable leaves the field alone, silently.

/// The values one knob accepts, in the unit its variable is written in.
struct Range {
  double lo{-std::numeric_limits<double>::infinity()};
  double hi{std::numeric_limits<double>::infinity()};
  bool lo_open{false};   ///< lo itself is rejected
  bool clamp_hi{false};  ///< a value above hi reads as hi instead of being rejected
  /// Variable units per field unit: the field gets value / per_unit (1000
  /// for a millisecond variable over a seconds field).
  double per_unit{1.0};
};

/// The longest time a time knob accepts, in seconds (11.6 days): every
/// Duration derived from one (a horizon, or a delay or interval added to
/// it) stays far inside the int64 nanosecond clock, and a run's 5 s result
/// bins stay a 200,000-entry vector.
inline constexpr double kMaxKnobSeconds = 1e6;

inline constexpr Range kFlag{};  ///< any integer; nonzero switches the field on
inline constexpr Range kProbability{.lo = 0.0, .hi = 1.0};
inline constexpr Range kNonNegative{.lo = 0.0};

/// A numeric range as the docs tables' Range column and the rejection
/// warnings spell it: "[0, 1]", "> 0", "≥ 1, clamped to 64", "any".
std::string describe_numbers(const Range& range);

/// The Range cell of a knob over a field of type T.
template <typename T>
std::string describe(const Range& range) {
  if constexpr (std::is_same_v<T, bool>) return "0/1";
  else if constexpr (std::is_same_v<T, std::string>) return "non-empty";
  else return describe_numbers(range);
}

/// Variable `name`'s raw text, neither parsed nor warned about (nullopt when
/// unset): for a key that changes with a knob's text (sweep's shard key).
std::optional<std::string> knob_text(const char* name);

namespace detail {

/// Unset -> nullopt, silently. Rejected -> nullopt and one stderr line.
/// Integers must also lie in [type_lo, type_hi], the field type's limits.
std::optional<long long> read_int(
    const char* name, const Range& range,
    double type_lo = -std::numeric_limits<double>::infinity(),
    double type_hi = std::numeric_limits<double>::infinity());
std::optional<double> read_real(const char* name, const Range& range);
std::optional<std::string> read_text(const char* name);

}  // namespace detail

/// The one reader: applies variable `name` to `field` when it is set and
/// accepted (see above), and says whether it did. A Duration field gets
/// value / per_unit seconds.
template <typename T>
bool read_knob(const char* name, T& field, const Range& range) {
  if constexpr (std::is_same_v<T, bool>) {
    const auto v = detail::read_int(name, range);
    if (v.has_value()) field = *v != 0;
    return v.has_value();
  } else if constexpr (std::is_integral_v<T>) {
    const auto v = detail::read_int(name, range,
                                    static_cast<double>(std::numeric_limits<T>::min()),
                                    static_cast<double>(std::numeric_limits<T>::max()));
    if (v.has_value()) field = static_cast<T>(*v);
    return v.has_value();
  } else if constexpr (std::is_same_v<T, std::string>) {
    auto v = detail::read_text(name);
    if (v.has_value()) field = std::move(*v);
    return v.has_value();
  } else if constexpr (std::is_same_v<T, Duration>) {
    const auto v = detail::read_real(name, range);
    if (v.has_value()) field = Duration::seconds(*v / range.per_unit);
    return v.has_value();
  } else {
    static_assert(std::is_floating_point_v<T>, "no reader for this knob's field type");
    const auto v = detail::read_real(name, range);
    if (v.has_value()) field = *v / range.per_unit;
    return v.has_value();
  }
}

/// Applies every knob `config`'s for_each_knob list declares (found by
/// argument-dependent lookup in the config's namespace).
template <typename Config>
void read_knobs(Config& config) {
  for_each_knob([](const char* name, auto& field, const Range& range) {
    read_knob(name, field, range);
  }, config);
}

}  // namespace vgr::sim
