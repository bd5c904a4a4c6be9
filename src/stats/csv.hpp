// CSV export of experiment results, for downstream plotting.
#pragma once

#include <string>

#include "stats/flow_ledger.hpp"

namespace tlbsim::stats {

/// One row per flow: id, src, dst, size, start, deadline, completed, fct,
/// reordering and retransmission counters. False when the file cannot be
/// opened, written or closed.
bool writeFlowsCsv(const std::string& path, const FlowLedger& ledger);

}  // namespace tlbsim::stats
