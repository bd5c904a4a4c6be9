// Event-core speed: the indexed 4-ary heap with constant-delay lanes +
// InlineFunction scheduler against the seed design it replaced (binary
// priority_queue of std::function entries with a live-id hash set and
// tombstone cancellation — embedded below verbatim, so the comparison is
// self-contained and reruns on any machine).
//
// Four measurements land in BENCH_core_speed.json:
//
//   micro  both cores drive the identical churn workload — bursts of
//          fire-once events plus RTO-style timers that are re-armed
//          (cancelled + rescheduled) far more often than they fire.
//          Reported as events/sec; the headline number is the speedup,
//          gated at >= 1.5x by the CI core-speed-smoke job. The heap
//          never holds more than ~20 entries, which flatters both cores.
//   heap   macro-shaped: 300 flows each keep a far-future RTO timer, so
//          the heap stands at ~300 entries (websearch_tlb's measured mean
//          depth is 277), while packet events circulate and each one
//          re-arms its flow's RTO — cancel + reschedule on the seed core,
//          sim::DeadlineTimer on the new one, as in TcpSender. Reported
//          as packet events/sec; both cores do identical work.
//   link   the heap churn with a link's events, one per hop: a delivery
//          at serialization on a 1 Gbps link (12 us for a 1500 B data
//          segment, 320 ns for a 40 B ACK) plus 12.5 us propagation, or,
//          for about a quarter of the events, a wake at the serialization
//          time alone. Those four delays reuse the new core's lanes as
//          Link's posts do. The micro and heap churns draw uniform delays
//          that almost never repeat and measure the lane bypass instead.
//          Both report the share of the new core's posts that used a
//          lane.
//   macro  a fig10-style web-search sweep through runner::runSweep with
//          the real simulator (new core only): the end-to-end wall-clock
//          a scheduler change actually buys.
//
// Default: 2M micro, heap and link events and a 1-scheme macro point
// (seconds); --full raises the event counts to 10M and runs the fig10
// default grid.
#include <chrono>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runner/runner.hpp"
#include "sim/deadline_timer.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"

namespace tlbsim::bench {
namespace {

// --- the seed event core, frozen for comparison -------------------------
// Copied from the pre-rewrite src/sim/scheduler.{hpp,cpp}: lazy
// cancellation leaves tombstones in the heap, the live-id set costs a
// hash insert+erase per event, and std::function heap-allocates captures
// above its (implementation-defined) inline budget.
namespace legacy {

using EventId = std::uint64_t;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  EventId schedule(SimTime delay, Callback fn) {
    return scheduleAt(now_ + delay, std::move(fn));
  }

  EventId scheduleAt(SimTime when, Callback fn) {
    if (when < now_) when = now_;
    const EventId id = nextId_++;
    heap_.push(Entry{when, id, std::move(fn)});
    live_.insert(id);
    return id;
  }

  bool cancel(EventId id) { return live_.erase(id) > 0; }

  std::uint64_t run(SimTime limit = kMaxTime) {
    std::uint64_t n = 0;
    while (step(limit)) ++n;
    return n;
  }

  bool step(SimTime limit = kMaxTime) {
    while (!heap_.empty()) {
      if (heap_.top().time > limit) {
        if (limit != kMaxTime && limit > now_) now_ = limit;
        return false;
      }
      Entry e = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      if (live_.erase(e.id) == 0) continue;  // cancelled; skip tombstone
      now_ = e.time;
      ++executed_;
      e.fn();
      return true;
    }
    if (limit != kMaxTime && limit > now_) now_ = limit;
    return false;
  }

  std::uint64_t executedEvents() const { return executed_; }
  std::size_t heapSize() const { return heap_.size(); }  // incl. tombstones

  static constexpr SimTime kMaxTime = SimTime::max();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<EventId> live_;
  SimTime now_;
  EventId nextId_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace legacy

// Uniform driver surface over both cores, so the churn loop below is the
// same code (and the same Rng draw sequence) for each.
// armTimer is the micro's eager re-arm on both cores; armRto is the
// heap mode's RTO re-arm, each core's own way.
struct NewCore {
  static constexpr const char* kName = "indexed_heap";
  sim::Scheduler s;
  sim::EventHandle timers[4];
  std::deque<sim::DeadlineTimer> rtos;
  std::uint64_t posts = 0;
  template <typename F>
  void post(SimTime d, F&& f) {
    ++posts;
    s.post(d, std::forward<F>(f));
  }
  /// Share of post() calls that went to a lane rather than the heap.
  double laneShare() const {
    return posts == 0 ? 0.0
                      : static_cast<double>(s.lanePosts()) /
                            static_cast<double>(posts);
  }
  template <typename F>
  void armTimer(std::size_t i, SimTime d, F&& f) {
    timers[i] = s.schedule(d, std::forward<F>(f));  // re-assign cancels
  }
  void addRtos(std::size_t n) {
    while (rtos.size() < n) rtos.emplace_back(s);
  }
  template <typename F>
  void armRto(std::size_t i, SimTime d, F f) {
    rtos[i].arm(d, std::move(f));
  }
  void runTo(SimTime t) { s.run(t); }
  SimTime now() const { return s.now(); }
  std::uint64_t executed() const { return s.executedEvents(); }
  std::size_t heapSize() const { return s.pendingEvents(); }
};

struct LegacyCore {
  static constexpr const char* kName = "seed_priority_queue";
  legacy::Scheduler s;
  legacy::EventId timers[4] = {0, 0, 0, 0};
  std::vector<legacy::EventId> rtos;
  template <typename F>
  void post(SimTime d, F&& f) {
    s.schedule(d, std::forward<F>(f));
  }
  template <typename F>
  void armTimer(std::size_t i, SimTime d, F&& f) {
    s.cancel(timers[i]);
    timers[i] = s.schedule(d, std::forward<F>(f));
  }
  void addRtos(std::size_t n) { rtos.resize(n, 0); }
  template <typename F>
  void armRto(std::size_t i, SimTime d, F f) {
    s.cancel(rtos[i]);
    rtos[i] = s.schedule(d, std::move(f));
  }
  void runTo(SimTime t) { s.run(t); }
  SimTime now() const { return s.now(); }
  std::uint64_t executed() const { return s.executedEvents(); }
  std::size_t heapSize() const { return s.heapSize(); }
  double laneShare() const { return 0.0; }  // no lanes
};

struct MicroResult {
  std::uint64_t events = 0;
  double wallSec = 0.0;
  double laneShare = 0.0;  ///< share of posts that used a lane
  double eventsPerSec() const { return static_cast<double>(events) / wallSec; }
};

/// The churn loop: per round, a burst of fire-once "packet" events, four
/// RTO-style timer re-arms (each cancelling the previous arm), then run
/// to a point where the burst has fired but the timers mostly have not —
/// so cancellation stays on the hot path, as it is in the simulator.
template <typename Core>
MicroResult runChurn(std::uint64_t targetEvents, std::uint64_t seed) {
  Core core;
  Rng rng(seed);
  std::uint64_t fired = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (core.executed() < targetEvents) {
    for (int i = 0; i < 16; ++i) {
      core.post(SimTime::fromNs(rng.uniformInt(1, 200)),
                [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < 4; ++i) {
      core.armTimer(i, SimTime::fromNs(rng.uniformInt(2000, 4000)),
                    [&fired] { ++fired; });
    }
    core.runTo(core.now() + SimTime::fromNs(250));
  }
  const auto t1 = std::chrono::steady_clock::now();
  MicroResult r;
  r.events = core.executed();
  r.wallSec = std::chrono::duration<double>(t1 - t0).count();
  r.laneShare = core.laneShare();
  return r;
}

struct HeapResult {
  MicroResult r;
  /// Pending events (heap and lanes) per packet event; the seed core's
  /// count includes its tombstones.
  double heapDepthMean = 0.0;
};

/// Packet-event delays of the heap churn: uniform, so they almost never
/// repeat and the new core's posts bypass its lanes.
struct UniformDelays {
  SimTime next(Rng& rng) const {
    return SimTime::fromNs(rng.uniformInt(50, 500));
  }
};

/// Packet-event delays of the link churn, in net::Link's shape: the
/// serialization time on a 1 Gbps link — 12 us for a 1500 B data
/// segment, 320 ns for a 40 B ACK, drawn half and half — for a wake, and
/// that plus 12.5 us of propagation for a delivery. One event in
/// kWakeShare is a wake: websearch_tlb runs 0.38 wakes per delivery
/// (DESIGN §6g).
struct LinkDelays {
  static constexpr double kWakeShare = 0.38 / 1.38;
  SimTime next(Rng& rng) const {
    const SimTime tx = rng.uniform() < 0.5 ? 12'000_ns : 320_ns;
    return rng.uniform() < kWakeShare ? tx : tx + 12'500_ns;
  }
};

/// The heap-shaped churn: kFlows flows each hold an RTO timer a
/// millisecond out, and kInFlight packet events circulate. Each packet
/// event re-arms one flow's RTO (almost always pushing it later, as an
/// ACK does) and sends that flow's next packet after a delay from
/// `Delays`: about 3600 packet gaps per RTO with UniformDelays, about 70
/// with LinkDelays.
template <typename Core, typename Delays>
HeapResult runHeapChurn(std::uint64_t targetPackets, std::uint64_t seed) {
  constexpr std::size_t kFlows = 300;
  constexpr int kInFlight = 32;
  struct Ctx {
    Core core;
    Rng rng;
    Delays delays;
    std::uint64_t packets = 0;
    std::uint64_t rtoFires = 0;
    double depthSum = 0.0;
    void armRto(std::size_t flow, SimTime rto) {
      core.armRto(flow, rto, [this] { ++rtoFires; });
    }
    // 16 bytes of capture: inline in std::function too, so the seed
    // core pays no allocation the indexed one does not.
    void send(std::uint32_t flow) {
      core.post(delays.next(rng), [this, flow] { packet(flow); });
    }
    void packet(std::uint32_t flow) {
      ++packets;
      depthSum += static_cast<double>(core.heapSize());
      armRto(flow, SimTime::fromNs(1'000'000 + rng.uniformInt(0, 2000)));
      send(pickFlow());
    }
    std::uint32_t pickFlow() {
      return static_cast<std::uint32_t>(rng.uniformInt(kFlows));
    }
  };
  auto ctx = std::make_unique<Ctx>();
  ctx->rng = Rng(seed);
  ctx->core.addRtos(kFlows);
  Ctx* c = ctx.get();
  for (std::size_t f = 0; f < kFlows; ++f) c->armRto(f, 1_ms);
  for (int i = 0; i < kInFlight; ++i) c->send(c->pickFlow());
  const auto t0 = std::chrono::steady_clock::now();
  while (c->packets < targetPackets) {
    c->core.runTo(c->core.now() + SimTime::fromNs(10'000));
  }
  const auto t1 = std::chrono::steady_clock::now();
  HeapResult h;
  h.r.events = c->packets;
  h.r.wallSec = std::chrono::duration<double>(t1 - t0).count();
  h.r.laneShare = c->core.laneShare();
  h.heapDepthMean = c->depthSum / static_cast<double>(c->packets);
  return h;
}

double runMacro(const BenchArgs& args, int* runsOut) {
  const auto dist = workload::FlowSizeDistribution::webSearch(
      args.full ? 0_B : 30 * kMB);
  const int flowCount = args.full ? 2000 : 240;

  runner::SweepSpec spec;
  spec.schemes =
      args.full ? std::vector<harness::Scheme>{harness::Scheme::kEcmp,
                                               harness::Scheme::kRps,
                                               harness::Scheme::kPresto,
                                               harness::Scheme::kLetFlow,
                                               harness::Scheme::kTlb}
                : std::vector<harness::Scheme>{harness::Scheme::kTlb};
  spec.loads = args.full ? std::vector<double>{0.2, 0.4, 0.6, 0.8}
                         : std::vector<double>{0.8};
  spec.seeds = {args.seed};
  spec.sweepSeed = args.seed;

  runner::SweepScenario scenario;
  scenario.base = [&args](const runner::SweepPoint& pt) {
    return largeScaleSetup(pt.scheme, args.full);
  };
  scenario.workload = [&](harness::ExperimentConfig& cfg,
                          const runner::SweepPoint& pt) {
    addPoissonWorkload(cfg, pt.load, dist, flowCount);
  };

  runner::RunnerOptions ropt;
  ropt.jobs = args.jobs != 0 ? args.jobs : 1;  // wall-clock needs 1 worker
  *runsOut = static_cast<int>(spec.schemes.size() * spec.loads.size() *
                              spec.seeds.size());
  const auto t0 = std::chrono::steady_clock::now();
  (void)runner::runSweep(spec, scenario, ropt);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace
}  // namespace tlbsim::bench

using namespace tlbsim;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
  const std::uint64_t microEvents = args.full ? 10'000'000 : 2'000'000;
  std::printf("Event-core speed: indexed 4-ary heap with lanes vs seed "
              "scheduler\n");
  std::printf("Micro churn (<= ~20 pending events):\n");

  // Interleave warm-up/measure per core so neither benefits from running
  // second on a warmed allocator.
  (void)bench::runChurn<bench::LegacyCore>(microEvents / 10, args.seed);
  const bench::MicroResult legacy =
      bench::runChurn<bench::LegacyCore>(microEvents, args.seed);
  (void)bench::runChurn<bench::NewCore>(microEvents / 10, args.seed);
  const bench::MicroResult indexed =
      bench::runChurn<bench::NewCore>(microEvents, args.seed);
  const double speedup = indexed.eventsPerSec() / legacy.eventsPerSec();

  std::printf("  %-22s %12.0f events/s (%llu events, %.2f s)\n",
              bench::LegacyCore::kName, legacy.eventsPerSec(),
              static_cast<unsigned long long>(legacy.events), legacy.wallSec);
  std::printf("  %-22s %12.0f events/s (%llu events, %.2f s)\n",
              bench::NewCore::kName, indexed.eventsPerSec(),
              static_cast<unsigned long long>(indexed.events),
              indexed.wallSec);
  std::printf("  speedup: %.2fx (target >= 1.5x)\n", speedup);

  using bench::LinkDelays;
  using bench::UniformDelays;
  (void)bench::runHeapChurn<bench::LegacyCore, UniformDelays>(
      microEvents / 10, args.seed);
  const bench::HeapResult heapLegacy =
      bench::runHeapChurn<bench::LegacyCore, UniformDelays>(microEvents,
                                                            args.seed);
  (void)bench::runHeapChurn<bench::NewCore, UniformDelays>(microEvents / 10,
                                                           args.seed);
  const bench::HeapResult heapNew =
      bench::runHeapChurn<bench::NewCore, UniformDelays>(microEvents,
                                                         args.seed);
  const double heapSpeedup =
      heapNew.r.eventsPerSec() / heapLegacy.r.eventsPerSec();

  (void)bench::runHeapChurn<bench::LegacyCore, LinkDelays>(microEvents / 10,
                                                           args.seed);
  const bench::HeapResult linkLegacy =
      bench::runHeapChurn<bench::LegacyCore, LinkDelays>(microEvents,
                                                         args.seed);
  (void)bench::runHeapChurn<bench::NewCore, LinkDelays>(microEvents / 10,
                                                        args.seed);
  const bench::HeapResult linkNew =
      bench::runHeapChurn<bench::NewCore, LinkDelays>(microEvents, args.seed);
  const double linkSpeedup =
      linkNew.r.eventsPerSec() / linkLegacy.r.eventsPerSec();

  for (const auto& [title, legacyRes, newRes, ratio] :
       {std::tuple{"Heap-shaped churn (300 standing RTO timers, packet "
                   "events re-arm them):",
                   &heapLegacy, &heapNew, heapSpeedup},
        std::tuple{"Link-shaped churn (the same at a 1 Gbps link's "
                   "one-event-per-hop delays):",
                   &linkLegacy, &linkNew, linkSpeedup}}) {
    std::printf("%s\n", title);
    for (const auto& [name, h] :
         {std::pair{bench::LegacyCore::kName, legacyRes},
          std::pair{bench::NewCore::kName, newRes}}) {
      std::printf("  %-22s %12.0f packet events/s (%.2f s, mean pending "
                  "%.0f, %.1f%% of posts in lanes)\n",
                  name, h->r.eventsPerSec(), h->r.wallSec, h->heapDepthMean,
                  100.0 * h->r.laneShare);
    }
    std::printf("  speedup: %.2fx\n", ratio);
  }

  int macroRuns = 0;
  const double macroWall = bench::runMacro(args, &macroRuns);
  std::printf("  macro: fig10-style sweep, %d run(s) in %.2f s wall\n",
              macroRuns, macroWall);

  const std::string jsonPath =
      args.jsonPath.empty() ? "BENCH_core_speed.json" : args.jsonPath;
  std::FILE* f = std::fopen(jsonPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"core_speed\",\n"
               "  \"config\": {\"micro_events\": %llu, \"seed\": %llu, "
               "\"full\": %s},\n"
               "  \"micro\": {\n"
               "    \"seed_priority_queue\": {\"events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f},\n"
               "    \"indexed_heap\": {\"events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"lane_share\": %.4f},\n"
               "    \"speedup\": %.3f,\n"
               "    \"target_speedup\": 1.5\n"
               "  },\n"
               "  \"heap\": {\n"
               "    \"flows\": 300, \"packets_in_flight\": 32, "
               "\"rto_us\": 1000,\n"
               "    \"seed_priority_queue\": {\"packet_events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"heap_depth_mean\": %.1f},\n"
               "    \"indexed_heap\": {\"packet_events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"heap_depth_mean\": %.1f, \"lane_share\": %.4f},\n"
               "    \"speedup\": %.3f\n"
               "  },\n"
               "  \"link\": {\n"
               "    \"flows\": 300, \"packets_in_flight\": 32, "
               "\"rto_us\": 1000,\n"
               "    \"delays_ns\": {\"data_tx\": 12000, \"ack_tx\": 320, "
               "\"propagation\": 12500}, \"wake_share\": %.3f,\n"
               "    \"seed_priority_queue\": {\"packet_events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"heap_depth_mean\": %.1f},\n"
               "    \"indexed_heap\": {\"packet_events\": %llu, "
               "\"wall_s\": %.4f, \"events_per_sec\": %.0f, "
               "\"heap_depth_mean\": %.1f, \"lane_share\": %.4f},\n"
               "    \"speedup\": %.3f\n"
               "  },\n"
               "  \"macro\": {\"scenario\": \"fig10_websearch %s\", "
               "\"runs\": %d, \"jobs\": %d, \"wall_s\": %.3f}\n"
               "}\n",
               static_cast<unsigned long long>(microEvents),
               static_cast<unsigned long long>(args.seed),
               args.full ? "true" : "false",
               static_cast<unsigned long long>(legacy.events), legacy.wallSec,
               legacy.eventsPerSec(),
               static_cast<unsigned long long>(indexed.events),
               indexed.wallSec, indexed.eventsPerSec(), indexed.laneShare,
               speedup,
               static_cast<unsigned long long>(heapLegacy.r.events),
               heapLegacy.r.wallSec, heapLegacy.r.eventsPerSec(),
               heapLegacy.heapDepthMean,
               static_cast<unsigned long long>(heapNew.r.events),
               heapNew.r.wallSec, heapNew.r.eventsPerSec(),
               heapNew.heapDepthMean, heapNew.r.laneShare, heapSpeedup,
               bench::LinkDelays::kWakeShare,
               static_cast<unsigned long long>(linkLegacy.r.events),
               linkLegacy.r.wallSec, linkLegacy.r.eventsPerSec(),
               linkLegacy.heapDepthMean,
               static_cast<unsigned long long>(linkNew.r.events),
               linkNew.r.wallSec, linkNew.r.eventsPerSec(),
               linkNew.heapDepthMean, linkNew.r.laneShare, linkSpeedup,
               args.full ? "default grid" : "tlb @ load 0.8",
               macroRuns, args.jobs != 0 ? args.jobs : 1, macroWall);
  std::fclose(f);
  std::printf("results JSON written to %s\n", jsonPath.c_str());

  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below the 1.5x target\n",
                 speedup);
    return 1;
  }
  return 0;
}
