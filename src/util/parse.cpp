#include "util/parse.hpp"

#include <charconv>
#include <cmath>

#include "util/check.hpp"

namespace tlbsim::util {

std::optional<std::int64_t> parseInt(std::string_view text) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> parseReal(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

std::optional<bool> parseBool(std::string_view text) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    return false;
  }
  return std::nullopt;
}

std::optional<SimTime> toSimTime(double value, SimTime unit) {
  const double ns = value * static_cast<double>(unit.ns());
  // 2^63 is the first double past int64; the test also rejects NaN.
  if (!(std::fabs(ns) < 0x1p63)) return std::nullopt;
  return SimTime::fromNs(static_cast<std::int64_t>(ns));
}

std::optional<SimTime> delayFrom(SimTime from, double value, SimTime unit) {
  TLBSIM_DCHECK(from >= 0_ns, "delay from the negative instant %lld ns",
                static_cast<long long>(from.ns()));
  const std::optional<SimTime> delay = toSimTime(value, unit);
  if (!delay.has_value() || *delay > SimTime::max() - from) {
    return std::nullopt;
  }
  return delay;
}

}  // namespace tlbsim::util
