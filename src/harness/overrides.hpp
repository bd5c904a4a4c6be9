// Declarative `key=value` overrides onto an ExperimentConfig.
//
// This is the one string vocabulary for experiment settings: sweep
// variants, `tlbsim_cli --set`, `--config` files and every experiment
// flag of the CLI all land here. Keys form a small dotted namespace
// mirroring the config structs (topo.*, tcp.*, tlb.*, scheme.*, app.*,
// fault.*) with units spelled in the key. Values are parsed in full by
// util/parse.hpp (finite reals, int64 integers, times that fit the clock)
// and checked against the key's range rule, so a typo or an impossible
// value is an error, never a silently kept default, and a rejected value
// leaves the config untouched.
//
//   scheme=letflow            tlb.update-interval-us=250
//   topo.buffer=128           tcp.hole-guard=false
//
// Overrides are applied before the workload is generated, so topology
// changes (host counts) stay consistent with the flow list.
#pragma once

#include <string>
#include <vector>

#include "harness/experiment.hpp"

namespace tlbsim::harness {

/// Apply one override. Returns false (and explains into *error when
/// non-null) for an unknown key, a value that does not parse in full, or
/// one outside the key's range.
bool applyOverride(ExperimentConfig& cfg, const std::string& key,
                   const std::string& value, std::string* error = nullptr);

/// Apply a list of "key=value" strings in order; stops at the first
/// failure. A string without '=' is a failure.
bool applyOverrides(ExperimentConfig& cfg,
                    const std::vector<std::string>& keyValues,
                    std::string* error = nullptr);

/// The rules no single key can check: the ECN marking threshold fits in
/// the buffer, every fault link lies inside the fabric, and the times its
/// rate and delay factors scale fit the simulated clock. Tools run it
/// once on the finished config, before any simulation starts.
bool checkConfig(const ExperimentConfig& cfg, std::string* error = nullptr);

/// Flag sugar. An experiment flag (named here without its leading "--")
/// stands for overrides:
///
///   --leaves 4          topo.leaves=4
///   --classic-tcp       tcp.hole-guard=false
///   --fault SPEC        fault.link=SPEC
///   --app a=1,b=2       app.a=1 app.b=2
///   --topo.buffer 64    topo.buffer=64   (every key is its own flag)
///
/// Switches take no value on a command line; in a config file their
/// value is a bool, so "classic-tcp = false" means tcp.hole-guard=true.
enum class FlagArity { kUnknown, kValue, kSwitch };
FlagArity flagArity(const std::string& flag);

/// Append the overrides `flag` stands for onto *out. `value` is "" for a
/// bare switch. False (explained into *error) for a name that is no flag
/// and a switch value that is not a bool; other values are checked when
/// the overrides are applied.
bool flagOverrides(const std::string& flag, const std::string& value,
                   std::vector<std::string>* out,
                   std::string* error = nullptr);

/// The accepted keys, one "key  description [--flag]" line each (for
/// --list-overrides and the docs test).
std::vector<std::string> overrideHelp();

}  // namespace tlbsim::harness
