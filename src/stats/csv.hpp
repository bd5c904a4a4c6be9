// CSV export of experiment results, for downstream plotting.
#pragma once

#include <string>

#include "stats/flow_ledger.hpp"

namespace tlbsim::stats {

/// One row per flow: id, src, dst, size, start, deadline, completed, fct,
/// reordering and retransmission counters.
void writeFlowsCsv(const std::string& path, const FlowLedger& ledger);

}  // namespace tlbsim::stats
