// Strict parsing of the numbers and bools that arrive as text: CLI flags,
// override values, --config lines and fault specs all go through here.
//
// A value parses only in full: no blanks around it, no sign but a leading
// '-', no trailing characters. Integers must fit int64 and reals must be
// finite, so "65x", "inf", "nan" and "1e999" are named errors at the text
// boundary instead of a prefix, a default, or an undefined conversion
// further down.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "util/units.hpp"

namespace tlbsim::util {

/// A base-10 integer in int64 range.
std::optional<std::int64_t> parseInt(std::string_view text);

/// A finite real number (decimal or exponent notation).
std::optional<double> parseReal(std::string_view text);

/// "true", "1", "yes", "on" or "false", "0", "no", "off".
std::optional<bool> parseBool(std::string_view text);

/// `value` `unit`s as a SimTime, truncated toward zero like the units.hpp
/// helpers; nullopt when the nanoseconds do not fit the clock's int64.
std::optional<SimTime> toSimTime(double value, SimTime unit);

/// A delay of `value` `unit`s (>= 0) after the instant `from` (>= 0),
/// converted as toSimTime converts it; nullopt when the instant it names
/// lies past the clock. Random draws (arrival gaps, think and service
/// times) go through here, so a huge draw never wraps into the past.
std::optional<SimTime> delayFrom(SimTime from, double value, SimTime unit);

}  // namespace tlbsim::util
