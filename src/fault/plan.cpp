#include "fault/plan.hpp"

#include <cstdio>
#include <string_view>
#include <utility>

#include "util/parse.hpp"

namespace tlbsim::fault {

namespace {

void explain(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
}

/// Splits `s` at every `sep`, trimming nothing (the grammar has no
/// whitespace); empty pieces are kept so "a,,b" is rejected loudly.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

/// Full-string non-negative int.
bool parseIndex(const std::string& s, int* out) {
  const auto v = util::parseInt(s);
  if (!v.has_value() || *v < 0 || !std::in_range<int>(*v)) return false;
  *out = static_cast<int>(*v);
  return true;
}

/// "0.1s" | "30ms" | "250us" | "1500ns" -> nanoseconds. Suffix required
/// so the unit is visible at every call site, matching the units.hpp
/// convention.
bool parseTime(const std::string& s, SimTime* out, std::string* error) {
  const std::string_view text = s;
  // "s" last: every other suffix ends with it too.
  constexpr std::pair<std::string_view, SimTime> kUnits[] = {
      {"ms", kMillisecond}, {"us", kMicrosecond}, {"ns", kNanosecond},
      {"s", kSecond}};
  for (const auto& [suffix, unit] : kUnits) {
    if (!text.ends_with(suffix)) continue;
    const auto v =
        util::parseReal(text.substr(0, text.size() - suffix.size()));
    if (!v.has_value() || *v < 0.0) break;
    const auto t = util::toSimTime(*v, unit);
    if (!t.has_value()) {
      explain(error, "time '" + s + "' overflows the simulated clock");
      return false;
    }
    *out = *t;
    return true;
  }
  explain(error, "bad time '" + s + "' (want e.g. 0.1s, 30ms, 250us)");
  return false;
}

/// "leaf3-spine7" -> (3, 7).
bool parseLinkName(const std::string& s, int* leaf, int* spine,
                   std::string* error) {
  const std::size_t dash = s.find('-');
  if (s.compare(0, 4, "leaf") != 0 || dash == std::string::npos ||
      s.compare(dash + 1, 5, "spine") != 0 ||
      !parseIndex(s.substr(4, dash - 4), leaf) ||
      !parseIndex(s.substr(dash + 6), spine)) {
    explain(error, "bad link name '" + s + "' (want leafL-spineS)");
    return false;
  }
  return true;
}

/// One action token ("down@0.1s", "rate=0.5@30ms", ...) for the link
/// (leaf, spine).
bool parseAction(const std::string& tok, int leaf, int spine,
                 FaultEvent* out, std::string* error) {
  const std::size_t at = tok.rfind('@');
  if (at == std::string::npos) {
    explain(error, "action '" + tok + "' is missing its @time");
    return false;
  }
  SimTime when;
  if (!parseTime(tok.substr(at + 1), &when, error)) return false;
  const std::string head = tok.substr(0, at);
  FaultEvent ev;
  ev.leaf = leaf;
  ev.spine = spine;
  ev.at = when;
  if (head == "down") {
    ev.kind = FaultEvent::Kind::kDown;
  } else if (head == "up") {
    ev.kind = FaultEvent::Kind::kUp;
  } else {
    const std::size_t eq = head.find('=');
    const auto parsed = eq == std::string::npos
                            ? std::nullopt
                            : util::parseReal(head.substr(eq + 1));
    if (!parsed.has_value()) {
      explain(error, "bad action '" + tok +
                         "' (want down, up, rate=F, delay=F, or drop=P)");
      return false;
    }
    const double v = *parsed;
    const std::string name = head.substr(0, eq);
    if (name == "rate") {
      if (!(v > 0.0) || v > 1.0) {
        explain(error, "rate factor must be in (0, 1], got '" + tok + "'");
        return false;
      }
      ev.kind = FaultEvent::Kind::kRateFactor;
    } else if (name == "delay") {
      if (v < 1.0) {
        explain(error, "delay factor must be >= 1, got '" + tok + "'");
        return false;
      }
      ev.kind = FaultEvent::Kind::kDelayFactor;
    } else if (name == "drop") {
      if (v < 0.0 || v > 1.0) {
        explain(error,
                "drop probability must be in [0, 1], got '" + tok + "'");
        return false;
      }
      ev.kind = FaultEvent::Kind::kDropProb;
    } else {
      explain(error, "unknown action '" + name + "' in '" + tok + "'");
      return false;
    }
    ev.value = v;
  }
  *out = ev;
  return true;
}

/// Largest unit that represents `t` exactly, as "<int><suffix>".
std::string formatTime(SimTime t) {
  char buf[32];
  if (t % kSecond == 0_ns) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(t / kSecond));
  } else if (t % kMillisecond == 0_ns) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(t / kMillisecond));
  } else if (t % kMicrosecond == 0_ns) {
    std::snprintf(buf, sizeof(buf), "%lldus",
                  static_cast<long long>(t / kMicrosecond));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns", static_cast<long long>(t.ns()));
  }
  return buf;
}

std::string formatAction(const FaultEvent& ev) {
  char buf[64];
  switch (ev.kind) {
    case FaultEvent::Kind::kDown:
      return "down@" + formatTime(ev.at);
    case FaultEvent::Kind::kUp:
      return "up@" + formatTime(ev.at);
    case FaultEvent::Kind::kRateFactor:
      std::snprintf(buf, sizeof(buf), "rate=%g@", ev.value);
      break;
    case FaultEvent::Kind::kDelayFactor:
      std::snprintf(buf, sizeof(buf), "delay=%g@", ev.value);
      break;
    case FaultEvent::Kind::kDropProb:
      std::snprintf(buf, sizeof(buf), "drop=%g@", ev.value);
      break;
  }
  return buf + formatTime(ev.at);
}

}  // namespace

const char* toString(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kDown: return "down";
    case FaultEvent::Kind::kUp: return "up";
    case FaultEvent::Kind::kRateFactor: return "rate";
    case FaultEvent::Kind::kDelayFactor: return "delay";
    case FaultEvent::Kind::kDropProb: return "drop";
  }
  return "?";
}

bool FaultEvent::disruptive() const {
  switch (kind) {
    case Kind::kDown: return true;
    case Kind::kUp: return false;
    case Kind::kRateFactor: return value < 1.0;
    case Kind::kDelayFactor: return value > 1.0;
    case Kind::kDropProb: return value > 0.0;
  }
  return false;
}

SimTime FaultPlan::firstDisruptiveAt() const {
  SimTime first = -1_ns;
  for (const auto& ev : events) {
    if (ev.disruptive() && (first < 0_ns || ev.at < first)) first = ev.at;
  }
  return first;
}

std::string FaultPlan::toString() const {
  // Group events per link in first-appearance order, keeping each link's
  // events in declaration order, so the output is a stable canonical form.
  std::vector<std::pair<int, int>> links;
  for (const auto& ev : events) {
    const std::pair<int, int> key{ev.leaf, ev.spine};
    bool seen = false;
    for (const auto& l : links) seen = seen || l == key;
    if (!seen) links.push_back(key);
  }
  std::string out;
  for (const auto& [leaf, spine] : links) {
    if (!out.empty()) out += ';';
    out += "leaf" + std::to_string(leaf) + "-spine" + std::to_string(spine);
    for (const auto& ev : events) {
      if (ev.leaf == leaf && ev.spine == spine) {
        out += ',' + formatAction(ev);
      }
    }
  }
  return out;
}

bool parseLinkFaults(const std::string& spec, FaultPlan* plan,
                     std::string* error) {
  std::vector<FaultEvent> parsed;
  for (const std::string& linkspec : split(spec, ';')) {
    const std::vector<std::string> parts = split(linkspec, ',');
    if (parts.size() < 2) {
      explain(error, "fault spec '" + linkspec +
                         "' needs a link and at least one action");
      return false;
    }
    int leaf = 0;
    int spine = 0;
    if (!parseLinkName(parts[0], &leaf, &spine, error)) return false;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      FaultEvent ev;
      if (!parseAction(parts[i], leaf, spine, &ev, error)) return false;
      parsed.push_back(ev);
    }
  }
  plan->events.insert(plan->events.end(), parsed.begin(), parsed.end());
  return true;
}

}  // namespace tlbsim::fault
