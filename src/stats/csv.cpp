#include "stats/csv.hpp"

#include <cstdio>

namespace tlbsim::stats {

bool writeFlowsCsv(const std::string& path, const FlowLedger& ledger) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fprintf(f,
                         "flow,src,dst,size_bytes,start_ns,deadline_ns,"
                         "completed,fct_ns,dup_acks,acks,ooo_packets,"
                         "data_packets,fast_retransmits,timeouts\n") > 0;
  for (const auto& r : ledger.flows()) {
    ok = std::fprintf(
        f,
        "%llu,%d,%d,%lld,%lld,%lld,%d,%lld,%llu,%llu,%llu,%llu,%llu,%llu\n",
        static_cast<unsigned long long>(r.spec.id), r.spec.src, r.spec.dst,
        static_cast<long long>(r.spec.size.bytes()),
        static_cast<long long>(r.spec.start.ns()),
        static_cast<long long>(r.spec.deadline.ns()), r.completed ? 1 : 0,
        static_cast<long long>(r.fct.ns()),
        static_cast<unsigned long long>(r.dupAcks),
        static_cast<unsigned long long>(r.acks),
        static_cast<unsigned long long>(r.outOfOrderPackets),
        static_cast<unsigned long long>(r.dataPackets),
        static_cast<unsigned long long>(r.fastRetransmits),
        static_cast<unsigned long long>(r.timeouts)) > 0 && ok;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace tlbsim::stats
