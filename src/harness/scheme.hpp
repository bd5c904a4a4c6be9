// Scheme registry: every load-balancing scheme the paper evaluates, plus
// the fixed-granularity knob behind the §2.2 motivation study.
//
// Names round-trip: parseScheme(schemeName(s)) == s == the same for
// schemeCliName(s), so sweep axes and config files can spell schemes as
// strings and get back exactly the enum they meant. Unknown names are a
// parse failure (nullopt), never a silent default.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/tlb_config.hpp"
#include "lb/fixed_granularity.hpp"
#include "net/uplink_selector.hpp"
#include "util/units.hpp"

namespace tlbsim::harness {

enum class Scheme {
  kEcmp,           ///< flow hashing (baseline)
  kWcmp,           ///< capacity-weighted flow hashing
  kRps,            ///< per-packet random spraying
  kDrill,          ///< per-packet power-of-two-choices
  kPresto,         ///< 64 KB flowcells, round-robin
  kLetFlow,        ///< flowlet switching, random path
  kConga,          ///< flowlet switching, DRE congestion-aware (local)
  kHermes,         ///< cautious condition-based rerouting (local approx.)
  kRoundRobin,     ///< per-packet deterministic round robin
  kFlowLevel,      ///< granularity study: never switch (random initial path)
  // 10 and 11 are retired; the schemes after them keep their values, which
  // value-parameterized tests print in their names.
  kShortestQueue = 12,  ///< per-packet global shortest queue (ablation)
  kFixedGranularity,  ///< switch every K packets (ablation)
  kTlb,            ///< the paper's scheme
};

/// Display name as the paper's figures label it ("LetFlow", "TLB", ...).
const char* schemeName(Scheme s);

/// Lower-case kebab spelling ("letflow", "round-robin", ...): the form the
/// CLI flags, config files and sweep axes use.
const char* schemeCliName(Scheme s);

/// Inverse of schemeName/schemeCliName. Case-insensitive and separator
/// (-, _, space) insensitive, so "LetFlow", "letflow" and "Flow-level" all
/// parse; nullopt for anything not in the registry.
std::optional<Scheme> parseScheme(std::string_view name);

/// Every scheme, in enum order (for --list-schemes and exhaustive tests).
const std::vector<Scheme>& allSchemes();

/// Thrown by makeSelector for an enum value outside the registry (e.g. a
/// corrupted or future Scheme cast from an integer): constructing a
/// selector nobody asked for would silently skew a whole experiment.
class UnknownSchemeError : public std::invalid_argument {
 public:
  explicit UnknownSchemeError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// Knobs consumed by makeSelector (only the fields relevant to the chosen
/// scheme are read).
struct SchemeConfig {
  Scheme scheme = Scheme::kTlb;
  SimTime flowletTimeout = microseconds(150);  ///< LetFlow (paper: 150 µs)
  ByteCount prestoCellBytes = 64 * kKiB;           ///< Presto flowcell
  std::uint64_t fixedK = 64;                   ///< FixedGranularity packets
  core::TlbConfig tlb;  ///< TLB parameters
  int numPaths = 1;     ///< uplink-group width (TLB model input)
};

/// Instantiate the selector for one switch. `salt` decorrelates per-switch
/// randomness/hashing. Throws UnknownSchemeError instead of returning a
/// default for an out-of-registry scheme value.
std::unique_ptr<net::UplinkSelector> makeSelector(const SchemeConfig& cfg,
                                                  std::uint64_t salt);

}  // namespace tlbsim::harness
