// Per-packet decision-path cost of the bounded flow-state table.
//
// Every load-balancing scheme consults per-flow state once per packet.
// The seed kept that state in std::unordered_map<FlowId, State> with a
// lastSeen field per scheme and an iterate-everything idle purge — that
// design is embedded verbatim below, so the comparison is self-contained
// and reruns on any machine. The replacement is lb::FlowStateTable: a
// bounded slot pool with an intrusive-LRU purge, whose slots are found
// through util::FlowIndex.
//
// Both sides run the identical 1M-flow churn soak (LetFlow-shaped
// decision: flowlet-gap check + port assignment + byte accounting, with
// periodic idle purges). BENCH_decision_path.json gets:
//
//   decisions_per_sec  per implementation; the headline speedup is gated
//                      at >= 1.3x by the CI decision-path-smoke job.
//   resident bytes     FlowStateTable reports its flat high-water
//                      footprint (asserted flat after the pool tops out);
//                      the map's node+bucket estimate is reported beside
//                      it.
//
// Default: 8M decisions over ~1M distinct flows; --full doubles both.
#include <chrono>
#include <cstdio>
#include <string>
#include <unordered_map>

#include "bench_common.hpp"
#include "lb/flow_state_table.hpp"
#include "util/flow_key.hpp"
#include "util/rng.hpp"

namespace tlbsim::bench {
namespace {

constexpr SimTime kFlowletGap = microseconds(100);
constexpr SimTime kIdleTimeout = microseconds(500);
constexpr SimTime kPurgeInterval = microseconds(100);
constexpr SimTime kInterArrival = 40_ns;
constexpr int kUplinks = 8;
constexpr std::uint64_t kActiveWindow = 32768;  ///< concurrently-live flows
constexpr int kPacketsPerFlow = 8;             ///< window advance rate

struct DecisionState {
  int port = -1;
  std::uint64_t bytes = 0;
};

// --- the seed design, frozen for comparison -----------------------------
// What every scheme did before the migration: one unordered_map node per
// flow, a lastSeen timestamp inside the state, and an idle purge that
// walks the entire map.
class LegacyTable {
 public:
  static constexpr const char* kName = "unordered_map";

  struct Touch {
    DecisionState& state;
    bool inserted;
    SimTime prevSeen;
  };

  Touch touch(FlowId id, SimTime now) {
    auto [it, inserted] = map_.try_emplace(id);
    Entry& e = it->second;
    const SimTime prev = inserted ? now : e.lastSeen;
    e.lastSeen = now;
    return Touch{e.state, inserted, prev};
  }

  void purgeIdle(SimTime now) {
    for (auto it = map_.begin(); it != map_.end();) {
      if (now - it->second.lastSeen > kIdleTimeout) {
        it = map_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return map_.size(); }

  /// Lower-bound estimate: one heap node per element (entry + hash link)
  /// plus the bucket array. Real allocator overhead comes on top.
  std::size_t residentBytes() const {
    struct Node {
      void* next;
      std::size_t hash;
      std::pair<const FlowId, Entry> kv;
    };
    return map_.size() * sizeof(Node) + map_.bucket_count() * sizeof(void*);
  }

 private:
  struct Entry {
    DecisionState state;
    SimTime lastSeen;
  };
  std::unordered_map<FlowId, Entry> map_;
};

class BoundedTable {
 public:
  static constexpr const char* kName = "flow_state_table";

  BoundedTable() : table_(config()) {}

  lb::FlowStateTable<DecisionState>::TouchResult touch(FlowId id,
                                                       SimTime now) {
    return table_.touch(id, now);
  }

  void purgeIdle(SimTime now) { table_.purgeIdle(now); }
  std::size_t size() const { return table_.size(); }
  std::size_t residentBytes() const { return table_.residentBytes(); }

 private:
  static lb::FlowStateConfig config() {
    lb::FlowStateConfig cfg;
    cfg.maxFlows = std::size_t{1} << 17;  // >> the live set, << flow count
    cfg.idleTimeout = kIdleTimeout;
    return cfg;
  }

  lb::FlowStateTable<DecisionState> table_;
};

struct SoakResult {
  std::uint64_t decisions = 0;
  std::uint64_t distinctFlows = 0;
  double wallSec = 0.0;
  std::uint64_t sink = 0;            ///< defeats dead-code elimination
  std::size_t peakResidentBytes = 0;
  std::size_t finalResidentBytes = 0;
  std::uint64_t lastGrowthDecision = 0;
  /// The footprint plateaued: it stopped growing in the first half of the
  /// soak and never moved again (the bounded table's doubling schedule
  /// tops out once the live set is covered; ~1M flows of churn follow).
  bool residentFlat = false;
  double decisionsPerSec() const {
    return static_cast<double>(decisions) / wallSec;
  }
};

/// The churn soak. Flow ids slide forward (kPacketsPerFlow packets each
/// on average) through a kActiveWindow-wide jitter window, so flows are
/// born, speak, and go idle continuously — the decision path sees hits,
/// misses, and purge batches in realistic proportion.
template <typename Table>
SoakResult runSoak(std::uint64_t decisions, std::uint64_t seed) {
  Table table;
  Rng rng(seed);
  SoakResult r;
  r.decisions = decisions;
  SimTime now;
  SimTime nextPurge = kPurgeInterval;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < decisions; ++i) {
    now += kInterArrival;
    const FlowId id = i / kPacketsPerFlow + rng.uniformInt(kActiveWindow);
    auto t = table.touch(id, now);
    if (t.inserted || now - t.prevSeen > kFlowletGap) {
      ++r.distinctFlows;  // new flowlet (counted identically both sides)
      t.state.port = static_cast<int>(flowHash(id, seed) %
                                      static_cast<std::uint64_t>(kUplinks));
    }
    t.state.bytes += 1460;
    r.sink += static_cast<std::uint64_t>(t.state.port);
    if (now >= nextPurge) {
      table.purgeIdle(now);
      nextPurge += kPurgeInterval;
      const std::size_t res = table.residentBytes();
      if (res > r.peakResidentBytes) {
        r.peakResidentBytes = res;
        r.lastGrowthDecision = i;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wallSec = std::chrono::duration<double>(t1 - t0).count();
  r.finalResidentBytes = table.residentBytes();
  r.residentFlat = r.finalResidentBytes <= r.peakResidentBytes &&
                   r.lastGrowthDecision < decisions / 2;
  return r;
}

void printResult(const char* name, const SoakResult& r) {
  std::printf("  %-18s %12.0f decisions/s (%.2f s, resident %zu KiB %s)\n",
              name, r.decisionsPerSec(), r.wallSec,
              r.peakResidentBytes / 1024,
              r.residentFlat ? "flat" : "GREW AFTER PEAK");
}

}  // namespace
}  // namespace tlbsim::bench

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  const std::uint64_t decisions = args.full ? 16'000'000 : 8'000'000;
  std::printf(
      "Decision-path cost: bounded flow-state table vs seed unordered_map\n"
      "  churn soak: %llu decisions, ~%llu distinct flows\n",
      static_cast<unsigned long long>(decisions),
      static_cast<unsigned long long>(decisions / bench::kPacketsPerFlow +
                                      bench::kActiveWindow));

  // Interleave warm-up/measure per table so neither benefits from running
  // second on a warmed allocator.
  (void)bench::runSoak<bench::LegacyTable>(decisions / 10, args.seed);
  const auto legacy = bench::runSoak<bench::LegacyTable>(decisions, args.seed);
  (void)bench::runSoak<bench::BoundedTable>(decisions / 10, args.seed);
  const auto bounded =
      bench::runSoak<bench::BoundedTable>(decisions, args.seed);

  bench::printResult(bench::LegacyTable::kName, legacy);
  bench::printResult(bench::BoundedTable::kName, bounded);
  if (bounded.sink != legacy.sink ||
      bounded.distinctFlows != legacy.distinctFlows) {
    std::fprintf(stderr,
                 "FAIL: implementations disagree on the workload "
                 "(sink %llu vs %llu, flowlets %llu vs %llu)\n",
                 static_cast<unsigned long long>(bounded.sink),
                 static_cast<unsigned long long>(legacy.sink),
                 static_cast<unsigned long long>(bounded.distinctFlows),
                 static_cast<unsigned long long>(legacy.distinctFlows));
    return 1;
  }
  const double speedup = bounded.decisionsPerSec() / legacy.decisionsPerSec();
  std::printf("  speedup: %.2fx (target >= 1.3x)\n", speedup);

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_decision_path.json" : args.jsonPath;
  std::FILE* f = std::fopen(jsonPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"decision_path\",\n"
      "  \"config\": {\"decisions\": %llu, \"packets_per_flow\": %d, "
      "\"active_window\": %llu, \"seed\": %llu, \"full\": %s},\n"
      "  \"unordered_map\": {\"decisions_per_sec\": %.0f, \"wall_s\": %.4f, "
      "\"peak_resident_bytes\": %zu},\n"
      "  \"flow_state_table\": {\"decisions_per_sec\": %.0f, "
      "\"wall_s\": %.4f, \"peak_resident_bytes\": %zu, "
      "\"resident_flat_after_peak\": %s},\n"
      "  \"speedup\": %.3f,\n"
      "  \"target_speedup\": 1.3\n"
      "}\n",
      static_cast<unsigned long long>(decisions), bench::kPacketsPerFlow,
      static_cast<unsigned long long>(bench::kActiveWindow),
      static_cast<unsigned long long>(args.seed), args.full ? "true" : "false",
      legacy.decisionsPerSec(), legacy.wallSec, legacy.peakResidentBytes,
      bounded.decisionsPerSec(), bounded.wallSec, bounded.peakResidentBytes,
      bounded.residentFlat ? "true" : "false", speedup);
  std::fclose(f);
  std::printf("results JSON written to %s\n", jsonPath.c_str());

  if (!bounded.residentFlat) {
    std::fprintf(stderr, "FAIL: resident footprint grew after its peak\n");
    return 1;
  }
  if (speedup < 1.3) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the 1.3x target\n",
                 speedup);
    return 1;
  }
  return 0;
}
