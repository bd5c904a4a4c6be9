#include "harness/scheme.hpp"

#include <cctype>

#include "core/tlb.hpp"
#include "lb/conga.hpp"
#include "lb/drill.hpp"
#include "lb/ecmp.hpp"
#include "lb/hermes_like.hpp"
#include "lb/letflow.hpp"
#include "lb/presto.hpp"
#include "lb/round_robin.hpp"
#include "lb/rps.hpp"
#include "lb/wcmp.hpp"
#include "util/rng.hpp"

namespace tlbsim::harness {

namespace {

/// Canonical lookup key: lower-case with every separator removed, so the
/// display name, the CLI spelling and hand-typed variants all collapse to
/// the same string.
std::string foldSchemeName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    if (c == '-' || c == '_' || c == ' ') continue;
    out.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

}  // namespace

const char* schemeName(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ECMP";
    case Scheme::kWcmp: return "WCMP";
    case Scheme::kConga: return "CONGA";
    case Scheme::kHermes: return "Hermes-like";
    case Scheme::kRoundRobin: return "RoundRobin";
    case Scheme::kRps: return "RPS";
    case Scheme::kDrill: return "DRILL";
    case Scheme::kPresto: return "Presto";
    case Scheme::kLetFlow: return "LetFlow";
    case Scheme::kFlowLevel: return "Flow-level";
    case Scheme::kShortestQueue: return "ShortestQueue";
    case Scheme::kFixedGranularity: return "FixedGranularity";
    case Scheme::kTlb: return "TLB";
  }
  throw UnknownSchemeError("schemeName: scheme enum value " +
                           std::to_string(static_cast<int>(s)) +
                           " is not in the registry");
}

const char* schemeCliName(Scheme s) {
  switch (s) {
    case Scheme::kEcmp: return "ecmp";
    case Scheme::kWcmp: return "wcmp";
    case Scheme::kConga: return "conga";
    case Scheme::kHermes: return "hermes";
    case Scheme::kRoundRobin: return "round-robin";
    case Scheme::kRps: return "rps";
    case Scheme::kDrill: return "drill";
    case Scheme::kPresto: return "presto";
    case Scheme::kLetFlow: return "letflow";
    case Scheme::kFlowLevel: return "flow-level";
    case Scheme::kShortestQueue: return "shortest-queue";
    case Scheme::kFixedGranularity: return "fixed-granularity";
    case Scheme::kTlb: return "tlb";
  }
  throw UnknownSchemeError("schemeCliName: scheme enum value " +
                           std::to_string(static_cast<int>(s)) +
                           " is not in the registry");
}

const std::vector<Scheme>& allSchemes() {
  static const std::vector<Scheme> all = {
      Scheme::kEcmp,          Scheme::kWcmp,
      Scheme::kRps,           Scheme::kDrill,
      Scheme::kPresto,        Scheme::kLetFlow,
      Scheme::kConga,         Scheme::kHermes,
      Scheme::kRoundRobin,    Scheme::kFlowLevel,
      Scheme::kShortestQueue, Scheme::kFixedGranularity,
      Scheme::kTlb,
  };
  return all;
}

std::optional<Scheme> parseScheme(std::string_view name) {
  const std::string key = foldSchemeName(name);
  if (key.empty()) return std::nullopt;
  for (const Scheme s : allSchemes()) {
    // Both spellings fold to the same key for every scheme except the
    // "Hermes-like" display name, whose CLI short form is "hermes".
    if (key == foldSchemeName(schemeName(s)) ||
        key == foldSchemeName(schemeCliName(s))) {
      return s;
    }
  }
  return std::nullopt;
}

std::unique_ptr<net::UplinkSelector> makeSelector(const SchemeConfig& cfg,
                                                  std::uint64_t salt) {
  const std::uint64_t seed = splitmix64(salt ^ 0x7c0ffee5ULL);
  switch (cfg.scheme) {
    case Scheme::kEcmp:
      return std::make_unique<lb::Ecmp>(salt);
    case Scheme::kWcmp:
      return std::make_unique<lb::Wcmp>(salt);
    case Scheme::kConga:
      return std::make_unique<lb::Conga>(seed, cfg.flowletTimeout);
    case Scheme::kHermes:
      return std::make_unique<lb::HermesLike>(seed);
    case Scheme::kRoundRobin:
      return std::make_unique<lb::RoundRobin>();
    case Scheme::kRps:
      return std::make_unique<lb::Rps>(seed);
    case Scheme::kDrill:
      return std::make_unique<lb::Drill>(seed);
    case Scheme::kPresto:
      return std::make_unique<lb::Presto>(salt, cfg.prestoCellBytes);
    case Scheme::kLetFlow:
      return std::make_unique<lb::LetFlow>(seed, cfg.flowletTimeout);
    case Scheme::kFlowLevel:
      return std::make_unique<lb::FixedGranularity>(
          seed, lb::FixedGranularity::kFlowLevel);
    case Scheme::kShortestQueue:
      return std::make_unique<lb::ShortestQueue>(seed);
    case Scheme::kFixedGranularity:
      return std::make_unique<lb::FixedGranularity>(seed, cfg.fixedK);
    case Scheme::kTlb:
      return std::make_unique<core::Tlb>(cfg.tlb, cfg.numPaths, seed);
  }
  throw UnknownSchemeError("makeSelector: scheme enum value " +
                           std::to_string(static_cast<int>(cfg.scheme)) +
                           " is not in the registry");
}

}  // namespace tlbsim::harness
