// Configuration of the closed-loop application layer (src/app): a
// partition-aggregate RPC service running on top of hosts/transport
// instead of a pre-materialized flow list.
//
// A query arrives at an aggregator host, fans out `fanOut` request flows
// to workers drawn from a placement policy, each worker replies with a
// CDF-drawn response after a configurable service time, and the query
// completes when the last response lands. `queries == 0` (the default)
// disables the layer entirely, which keeps every pre-existing run and its
// summary JSON byte-identical.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace tlbsim::app {

/// How queries arrive at their aggregators.
enum class Arrival : std::uint8_t {
  kPoisson = 0,     ///< open loop: exponential inter-arrival gaps at `qps`
  kClosedLoop = 1,  ///< `concurrency` outstanding queries, exponential
                    ///< think time between a completion and the next issue
};

/// How the workers of one query are drawn.
enum class Placement : std::uint8_t {
  kRandom = 0,  ///< fanOut distinct hosts, uniform, excluding the aggregator
  kSpread = 1,  ///< round-robin across access switches (leaves) first,
                ///< so the fan-out crosses the fabric as widely as it can
};

/// Worker response-size model.
enum class ResponseDist : std::uint8_t {
  kFixed = 0,       ///< every response is exactly `responseBytes`
  kWebSearch = 1,   ///< DCTCP web-search CDF, capped at `responseBytes`
  kDataMining = 2,  ///< VL2 data-mining CDF, capped at `responseBytes`
};

struct AppConfig {
  /// Total queries the service issues; 0 disables the app layer.
  int queries = 0;
  /// Request flows per query (the partition width).
  int fanOut = 8;

  Arrival arrival = Arrival::kClosedLoop;
  /// Poisson arrival rate, queries/sec (kPoisson only).
  double qps = 2000.0;
  /// Outstanding queries (kClosedLoop only).
  int concurrency = 4;
  /// Mean think time between a completion and the next issue (kClosedLoop
  /// only; exponential, 0 = immediate re-issue).
  SimTime thinkTime = microseconds(100);

  /// Aggregator -> worker request size.
  ByteCount requestBytes = 2 * kKB;
  /// Worker -> aggregator response size model; for the CDF distributions
  /// `responseBytes` caps the draw (partition-aggregate responses are
  /// bounded by the per-worker shard).
  ResponseDist responseDist = ResponseDist::kFixed;
  ByteCount responseBytes = 32 * kKB;
  /// Mean worker compute time between request arrival and the response
  /// (exponential; 0 = reply immediately).
  SimTime serviceTime = microseconds(100);

  /// Query-completion SLO used for hit/miss accounting; 0 = no SLO.
  SimTime slo = milliseconds(10);
  /// Per-query retry timer: when it fires, every slot still missing its
  /// response is re-requested on fresh flow ids (fresh ECMP hashes — the
  /// recovery path for queries straddling a link fault). 0 = no retries.
  SimTime timeout = milliseconds(40);
  int maxRetries = 2;

  /// RepFlow-style duplicate requests: slots whose drawn response size is
  /// strictly below this threshold are requested twice up front (distinct
  /// flow ids, first response wins). 0 = off.
  ByteCount duplicateThreshold;

  Placement placement = Placement::kRandom;
  /// Pin every query's aggregator to this host; -1 rotates round-robin
  /// over all hosts.
  int aggregator = -1;

  bool enabled() const { return queries > 0; }
};

}  // namespace tlbsim::app
