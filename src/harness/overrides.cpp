#include "harness/overrides.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "fault/plan.hpp"
#include "obs/json.hpp"
#include "util/parse.hpp"

namespace tlbsim::harness {

namespace {

using Config = ExperimentConfig;

/// Parses `value` into the config, or returns false and leaves the config
/// untouched: every row parses, checks its range rule, and only then
/// assigns. `why` (never null) may receive the rule the value broke.
using Apply =
    std::function<bool(Config&, const std::string& value, std::string* why)>;

/// How a key's flag reads: `--leaves 4`, or a bare switch standing for
/// `true` (`--fault-drain`) or for `false` (`--classic-tcp`).
enum class Sugar { kValue, kSwitch, kNegatedSwitch };

struct Key {
  const char* name;
  const char* flag;  ///< CLI flag (sans "--") that is sugar for the key
  const char* help;
  Apply apply;
  Sugar sugar = Sugar::kValue;
};

/// An integer in [lo, hi], handed to `set`.
Apply integer(std::int64_t lo, std::function<void(Config&, std::int64_t)> set,
              std::int64_t hi = INT_MAX) {
  return [lo, hi, set = std::move(set)](Config& c, const std::string& value,
                                        std::string* why) {
    const auto v = util::parseInt(value);
    if (!v.has_value() || *v > hi) return false;
    if (*v < lo) {
      *why = "must be >= " + std::to_string(lo);
      return false;
    }
    set(c, *v);
    return true;
  };
}

/// `value` as a finite real that is > 0 (`positive`) or >= 0; nullopt
/// otherwise, with the range rule it broke in *why.
std::optional<double> real(const std::string& value, bool positive,
                           std::string* why) {
  const auto v = util::parseReal(value);
  if (v.has_value() && (positive ? !(*v > 0.0) : !(*v >= 0.0))) {
    *why = positive ? "must be > 0" : "must be >= 0";
    return std::nullopt;
  }
  return v;
}

/// A real number that must be > 0, handed to `set`.
Apply positive(std::function<void(Config&, double)> set) {
  return [set = std::move(set)](Config& c, const std::string& value,
                                std::string* why) {
    const auto v = real(value, true, why);
    if (!v.has_value()) return false;
    set(c, *v);
    return true;
  };
}

/// A time in `unit`s that must be > 0 (`positive`) or >= 0 and fit the
/// clock, handed to `set`.
Apply duration(SimTime unit, bool positive,
               std::function<void(Config&, SimTime)> set) {
  return [unit, positive, set = std::move(set)](
             Config& c, const std::string& value, std::string* why) {
    const auto v = real(value, positive, why);
    if (!v.has_value()) return false;
    const auto t = util::toSimTime(*v, unit);
    if (!t.has_value()) {
      *why = "overflows the simulated clock (int64 nanoseconds)";
      return false;
    }
    set(c, *t);
    return true;
  };
}
Apply positiveTime(SimTime unit, std::function<void(Config&, SimTime)> set) {
  return duration(unit, true, std::move(set));
}
Apply nonNegativeTime(SimTime unit,
                      std::function<void(Config&, SimTime)> set) {
  return duration(unit, false, std::move(set));
}

Apply boolean(std::function<void(Config&, bool)> set) {
  return [set = std::move(set)](Config& c, const std::string& value,
                                std::string*) {
    const auto v = util::parseBool(value);
    if (!v.has_value()) return false;
    set(c, *v);
    return true;
  };
}

const std::vector<Key>& keyTable() {
  static const std::vector<Key> table = {
      {"scheme", "scheme", "load-balancing scheme (parseScheme names)",
       [](Config& c, const std::string& value, std::string*) {
         const auto s = parseScheme(value);
         if (!s.has_value()) return false;
         c.scheme.scheme = *s;
         return true;
       }},
      {"topo.leaves", "leaves", "number of leaf switches",
       integer(1, [](Config& c, std::int64_t v) {
         c.topo.numLeaves = static_cast<int>(v);
       })},
      {"topo.spines", "spines", "number of spine switches (equal-cost paths)",
       integer(1, [](Config& c, std::int64_t v) {
         c.topo.numSpines = static_cast<int>(v);
       })},
      {"topo.hosts-per-leaf", "hosts-per-leaf", "hosts under each leaf",
       integer(1, [](Config& c, std::int64_t v) {
         c.topo.hostsPerLeaf = static_cast<int>(v);
       })},
      {"topo.buffer", "buffer", "per-port buffer depth, packets",
       integer(1, [](Config& c, std::int64_t v) {
         c.topo.bufferPackets = static_cast<int>(v);
       })},
      {"topo.ecn-k", "ecn-k", "DCTCP marking threshold, packets (0 = off)",
       integer(0,
               [](Config& c, std::int64_t v) {
                 c.topo.ecnThresholdPackets = static_cast<int>(v);
                 c.tcp.enableEcn = v > 0;
               })},
      {"topo.rate-gbps", "rate-gbps", "host and fabric link rate, Gbps",
       positive([](Config& c, double v) {
         c.topo.hostLinkRate = gbps(v);
         c.topo.fabricLinkRate = gbps(v);
       })},
      {"topo.rtt-us", "rtt-us", "base RTT, microseconds (sets per-link delay)",
       positiveTime(kMicrosecond,
                    [](Config& c, SimTime t) { c.topo.linkDelay = t / 8; })},
      {"tcp.hole-guard", "classic-tcp",
       "reordering-tolerant retransmit guard (false = classic NS2-era TCP)",
       boolean([](Config& c, bool v) { c.tcp.holeRetransmitGuard = v; }),
       Sugar::kNegatedSwitch},
      {"tcp.min-rto-us", nullptr,
       "minimum retransmission timeout, microseconds",
       nonNegativeTime(kMicrosecond,
                       [](Config& c, SimTime t) { c.tcp.minRto = t; })},
      {"tlb.update-interval-us", nullptr, "TLB control-loop interval t",
       positiveTime(kMicrosecond, [](Config& c, SimTime t) {
         c.scheme.tlb.updateInterval = t;
       })},
      {"tlb.idle-timeout-us", nullptr, "TLB flow-entry idle purge timeout",
       nonNegativeTime(kMicrosecond, [](Config& c, SimTime t) {
         c.scheme.tlb.idleTimeout = t;
       })},
      {"tlb.short-threshold-bytes", nullptr,
       "bytes before TLB reclassifies a flow as long",
       integer(0, [](Config& c, std::int64_t v) {
         c.scheme.tlb.shortFlowThreshold = ByteCount::fromBytes(v);
       })},
      {"tlb.spray-stickiness-bytes", nullptr,
       "minimum queue-length gain before a short flow switches uplinks",
       integer(0, [](Config& c, std::int64_t v) {
         c.scheme.tlb.sprayStickiness = ByteCount::fromBytes(v);
       })},
      {"tlb.deadline-ms", nullptr, "short-flow deadline D, milliseconds",
       positiveTime(kMillisecond, [](Config& c, SimTime t) {
         c.scheme.tlb.deadline = t;
       })},
      {"scheme.flowlet-timeout-us", nullptr, "LetFlow/CONGA flowlet gap",
       nonNegativeTime(kMicrosecond, [](Config& c, SimTime t) {
         c.scheme.flowletTimeout = t;
       })},
      {"scheme.presto-cell-bytes", nullptr, "Presto flowcell size",
       integer(1, [](Config& c, std::int64_t v) {
         c.scheme.prestoCellBytes = ByteCount::fromBytes(v);
       })},
      {"scheme.fixed-k", nullptr, "FixedGranularity switching period, packets",
       integer(
           0,
           [](Config& c, std::int64_t v) {
             c.scheme.fixedK = static_cast<std::uint64_t>(v);
           },
           INT64_MAX)},
      {"max-duration-ms", nullptr, "hard stop, simulated milliseconds",
       positiveTime(kMillisecond,
                    [](Config& c, SimTime t) { c.maxDuration = t; })},
      {"sample-interval-us", nullptr, "time-series sampling period (0 = off)",
       nonNegativeTime(kMicrosecond,
                       [](Config& c, SimTime t) { c.sampleInterval = t; })},
      {"app.queries", nullptr,
       "partition-aggregate queries to run (0 = app off)",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.queries = static_cast<int>(v);
       })},
      {"app.fan-out", nullptr, "worker request flows per query",
       integer(1, [](Config& c, std::int64_t v) {
         c.app.fanOut = static_cast<int>(v);
       })},
      {"app.arrival", nullptr, "query arrival process: poisson | closed",
       [](Config& c, const std::string& value, std::string*) {
         if (value == "poisson") {
           c.app.arrival = app::Arrival::kPoisson;
         } else if (value == "closed") {
           c.app.arrival = app::Arrival::kClosedLoop;
         } else {
           return false;
         }
         return true;
       }},
      {"app.qps", nullptr, "Poisson query arrival rate, queries/second",
       positive([](Config& c, double v) { c.app.qps = v; })},
      {"app.concurrency", nullptr, "closed-loop outstanding queries",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.concurrency = static_cast<int>(v);
       })},
      {"app.think-time-us", nullptr,
       "closed-loop mean think time after completion",
       nonNegativeTime(kMicrosecond,
                       [](Config& c, SimTime t) { c.app.thinkTime = t; })},
      {"app.request-bytes", nullptr, "request flow size, aggregator to worker",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.requestBytes = ByteCount::fromBytes(v);
       })},
      {"app.response-dist", nullptr,
       "response-size draw: fixed | websearch | datamining",
       [](Config& c, const std::string& value, std::string*) {
         if (value == "fixed") {
           c.app.responseDist = app::ResponseDist::kFixed;
         } else if (value == "websearch") {
           c.app.responseDist = app::ResponseDist::kWebSearch;
         } else if (value == "datamining") {
           c.app.responseDist = app::ResponseDist::kDataMining;
         } else {
           return false;
         }
         return true;
       }},
      {"app.response-bytes", nullptr,
       "response size (fixed) or cap (websearch/datamining)",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.responseBytes = ByteCount::fromBytes(v);
       })},
      {"app.service-time-us", nullptr, "mean worker service time (0 = instant)",
       nonNegativeTime(kMicrosecond,
                       [](Config& c, SimTime t) { c.app.serviceTime = t; })},
      {"app.slo-ms", nullptr, "query completion SLO, milliseconds (0 = none)",
       nonNegativeTime(kMillisecond,
                       [](Config& c, SimTime t) { c.app.slo = t; })},
      {"app.timeout-ms", nullptr,
       "per-query retry timeout, milliseconds (0 = off)",
       nonNegativeTime(kMillisecond,
                       [](Config& c, SimTime t) { c.app.timeout = t; })},
      {"app.max-retries", nullptr, "retry budget per query",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.maxRetries = static_cast<int>(v);
       })},
      {"app.duplicate-threshold-bytes", nullptr,
       "duplicate requests whose response is below this (0 = off)",
       integer(0, [](Config& c, std::int64_t v) {
         c.app.duplicateThreshold = ByteCount::fromBytes(v);
       })},
      {"app.placement", nullptr, "worker placement: random | spread",
       [](Config& c, const std::string& value, std::string*) {
         if (value == "random") {
           c.app.placement = app::Placement::kRandom;
         } else if (value == "spread") {
           c.app.placement = app::Placement::kSpread;
         } else {
           return false;
         }
         return true;
       }},
      {"app.aggregator", nullptr,
       "pin the aggregator host (-1 = rotate per query)",
       integer(-1, [](Config& c, std::int64_t v) {
         c.app.aggregator = static_cast<int>(v);
       })},
      {"fault.link", "fault",
       "append link-fault events: leafL-spineS,down@T,up@T,rate=F@T,"
       "delay=F@T,drop=P@T with time suffix s/ms/us/ns (';' joins links)",
       [](Config& c, const std::string& value, std::string* why) {
         return fault::parseLinkFaults(value, &c.fault, why);
       }},
      {"fault.drain", "fault-drain",
       "drain in-flight packets on link-down instead of dropping them",
       boolean([](Config& c, bool v) { c.fault.drainOnDown = v; }),
       Sugar::kSwitch},
  };
  return table;
}

const Key* findKey(const std::string& name) {
  for (const Key& k : keyTable()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

/// The key `flag` is sugar for: its own key, or the key whose flag it is.
const Key* findFlag(const std::string& flag) {
  if (const Key* k = findKey(flag)) return k;
  for (const Key& k : keyTable()) {
    if (k.flag != nullptr && flag == k.flag) return &k;
  }
  return nullptr;
}

bool explain(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

/// Link rates, delays and fault factors the clock can hold, on the
/// uniform fabric the override keys describe. On each faulted cable the
/// plan's lowest rate and highest delay factor count; every other cable
/// has factors of 1. A full-buffer round trip over a cross-leaf path
/// (four host-link and four fabric-link hops, every queue full of
/// segments, each fabric hop at those factors) must fit the
/// int64-nanosecond clock. It sums the scaled delay and a full segment's
/// scaled serialization, so those fit too. Computed in doubles, before
/// any of them reaches an integer.
bool checkRoundTripFitsClock(const ExperimentConfig& cfg,
                             std::string* error) {
  const net::LeafSpineConfig& topo = cfg.topo;
  const double bits =
      8.0 * static_cast<double>(cfg.tcp.maxSegmentWireSize().bytes());
  const auto transitNs = [&](LinkRate rate, double rateFactor,
                             double delayFactor) {
    return (topo.bufferPackets + 1.0) * bits /
               (rate.bitsPerSecond() * rateFactor) * 1e9 +
           static_cast<double>(topo.linkDelay.ns()) * delayFactor;
  };
  const auto roundTripFits = [&](double rateFactor, double delayFactor) {
    const double roundTripNs =
        4.0 * (transitNs(topo.hostLinkRate, 1.0, 1.0) +
               transitNs(topo.fabricLinkRate, rateFactor, delayFactor));
    return roundTripNs < static_cast<double>(SimTime::max().ns());
  };
  if (!roundTripFits(1.0, 1.0)) {
    return explain(error,
                   "topo.rate-gbps and topo.rtt-us put a link's delay, "
                   "serialization or a full-buffer round trip past the "
                   "simulated clock (int64 nanoseconds)");
  }
  for (const fault::FaultEvent& ev : cfg.fault.events) {
    double rate = 1.0;
    double delay = 1.0;
    for (const fault::FaultEvent& e : cfg.fault.events) {
      if (e.leaf != ev.leaf || e.spine != ev.spine) continue;
      if (e.kind == fault::FaultEvent::Kind::kRateFactor) {
        rate = std::min(rate, e.value);
      } else if (e.kind == fault::FaultEvent::Kind::kDelayFactor) {
        delay = std::max(delay, e.value);
      }
    }
    if (!roundTripFits(rate, delay)) {
      return explain(error, "fault.link leaf" + std::to_string(ev.leaf) +
                                "-spine" + std::to_string(ev.spine) +
                                ": rate factor " + obs::jsonNumber(rate) +
                                " and delay factor " +
                                obs::jsonNumber(delay) +
                                " put its delay, serialization or a "
                                "full-buffer round trip past the simulated "
                                "clock (int64 nanoseconds)");
    }
  }
  return true;
}

}  // namespace

bool applyOverride(ExperimentConfig& cfg, const std::string& key,
                   const std::string& value, std::string* error) {
  const Key* entry = findKey(key);
  if (entry == nullptr) {
    return explain(error, "unknown override key '" + key + "'");
  }
  std::string why;
  if (entry->apply(cfg, value, &why)) return true;
  return explain(error, "bad value '" + value + "' for override '" + key +
                            "'" + (why.empty() ? "" : ": " + why));
}

bool applyOverrides(ExperimentConfig& cfg,
                    const std::vector<std::string>& keyValues,
                    std::string* error) {
  for (const auto& kvStr : keyValues) {
    const auto eq = kvStr.find('=');
    if (eq == std::string::npos || eq == 0) {
      return explain(error,
                     "override '" + kvStr + "' is not of the form key=value");
    }
    if (!applyOverride(cfg, kvStr.substr(0, eq), kvStr.substr(eq + 1),
                       error)) {
      return false;
    }
  }
  return true;
}

bool checkConfig(const ExperimentConfig& cfg, std::string* error) {
  const net::LeafSpineConfig& topo = cfg.topo;
  if (topo.ecnThresholdPackets > topo.bufferPackets) {
    return explain(error, "topo.ecn-k (" +
                              std::to_string(topo.ecnThresholdPackets) +
                              ") cannot exceed topo.buffer (" +
                              std::to_string(topo.bufferPackets) + ")");
  }
  for (const fault::FaultEvent& ev : cfg.fault.events) {
    if (ev.leaf < 0 || ev.leaf >= topo.numLeaves || ev.spine < 0 ||
        ev.spine >= topo.numSpines) {
      return explain(error, "fault.link leaf" + std::to_string(ev.leaf) +
                                "-spine" + std::to_string(ev.spine) +
                                " is outside the " +
                                std::to_string(topo.numLeaves) + "x" +
                                std::to_string(topo.numSpines) + " fabric");
    }
  }
  return checkRoundTripFitsClock(cfg, error);
}

FlagArity flagArity(const std::string& flag) {
  if (flag == "app") return FlagArity::kValue;
  const Key* k = findFlag(flag);
  if (k == nullptr) return FlagArity::kUnknown;
  const bool isSwitch =
      k->sugar != Sugar::kValue && k->flag != nullptr && flag == k->flag;
  return isSwitch ? FlagArity::kSwitch : FlagArity::kValue;
}

bool flagOverrides(const std::string& flag, const std::string& value,
                   std::vector<std::string>* out, std::string* error) {
  if (flag == "app") {
    // The one list flag: each comma-joined item is an app.* override
    // without its prefix.
    std::size_t start = 0;
    while (start <= value.size()) {
      const std::size_t comma = value.find(',', start);
      const std::size_t end = comma == std::string::npos ? value.size() : comma;
      if (end > start) {
        out->push_back("app." + value.substr(start, end - start));
      }
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return true;
  }
  const Key* k = findFlag(flag);
  if (k == nullptr) return explain(error, "unknown flag '--" + flag + "'");
  if (flagArity(flag) == FlagArity::kValue) {
    out->push_back(std::string(k->name) + "=" + value);
    return true;
  }
  const std::optional<bool> on =
      value.empty() ? std::optional<bool>(true) : util::parseBool(value);
  if (!on.has_value()) {
    return explain(error, "bad value '" + value + "' for --" + flag);
  }
  const bool keyValue = *on != (k->sugar == Sugar::kNegatedSwitch);
  out->push_back(std::string(k->name) + (keyValue ? "=true" : "=false"));
  return true;
}

std::vector<std::string> overrideHelp() {
  std::vector<std::string> out;
  out.reserve(keyTable().size());
  for (const Key& k : keyTable()) {
    std::string line = std::string(k.name) + "  " + k.help;
    if (k.flag != nullptr) {
      line += std::string(" [--") + k.flag;
      if (k.sugar == Sugar::kSwitch) line += " sets true";
      if (k.sugar == Sugar::kNegatedSwitch) line += " sets false";
      line += "]";
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace tlbsim::harness
