// The benchmark's workloads: each is an ExperimentConfig built from a
// name and a seed. The seed drives every random input (arrivals, host
// pairs, flow sizes, selector salts), so one (name, seed) pair always
// yields the same run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "harness/experiment.hpp"

namespace perfbench {

/// The full experiment config (flow list included) for `name` at `seed`;
/// nullopt for an unknown name.
std::optional<tlbsim::harness::ExperimentConfig> makeConfig(
    const std::string& name, std::uint64_t seed);

/// An operation is one static flow or one app query.
std::size_t operations(const tlbsim::harness::ExperimentConfig& cfg);

/// Operations not completed by the run's maxDuration.
std::size_t failedOperations(const tlbsim::harness::ExperimentConfig& cfg,
                             const tlbsim::harness::ExperimentResult& res);

}  // namespace perfbench
