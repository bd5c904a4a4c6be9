// Queue-delay observation at the load-balanced fabric queues.
//
// Hooks into links' dequeue path and attributes each data packet's queueing
// delay to its flow class (short/long). Feeds Fig. 3(a) (queue length
// experienced by short-flow packets) and Fig. 8(b) (short-flow queueing
// delay over time).
//
// Memory stays bounded by the run's short-flow traffic: short-flow samples
// are kept exactly (the figures read their percentiles and mean), while
// the far more numerous long-flow samples, which no figure plots, only
// fill two fixed-size histograms.
#pragma once

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "util/flow_key.hpp"
#include "util/summary_stats.hpp"
#include "util/units.hpp"

namespace tlbsim::stats {

/// Bucket bounds of the long-flow histograms, shared by delay (µs) and
/// queue length (packets): an exact-zero bucket, then 20 log-spaced
/// buckets per decade from 1e-3 to 1e6, then the overflow bucket.
inline const std::vector<double>& queueSampleBounds() {
  static const std::vector<double> bounds = [] {
    constexpr int kPerDecade = 20;
    constexpr int kLowestDecade = -3;
    constexpr int kHighestDecade = 6;
    std::vector<double> b = {0.0};
    for (int i = kLowestDecade * kPerDecade; i <= kHighestDecade * kPerDecade;
         ++i) {
      b.push_back(std::pow(10.0, static_cast<double>(i) / kPerDecade));
    }
    return b;
  }();
  return bounds;
}

class QueueDelayMonitor {
 public:
  /// `isShort` classifies flows by id (the harness knows the spec sizes).
  using Classifier = std::function<bool(FlowId)>;

  explicit QueueDelayMonitor(Classifier isShort)
      : isShort_(std::move(isShort)),
        longDelayUs_(queueSampleBounds()),
        longQueueLenPkts_(queueSampleBounds()) {}

  /// Install the dequeue hook on `link`. The monitor must outlive the link's
  /// use. Queue length experienced is reconstructed from the queueing delay
  /// and the link's drain rate.
  void installOn(net::Link& link) {
    const double bytesPerSec = link.rate().bytesPerSecond();
    link.addDequeueHook([this, bytesPerSec](const net::Packet& pkt,
                                            SimTime delay) {
      record(pkt, delay, bytesPerSec);
    });
  }

  void record(const net::Packet& pkt, SimTime delay, double drainBps) {
    if (!pkt.isData()) return;
    const double delayUs = toMicroseconds(delay);
    const double lenPkts = toSeconds(delay) * drainBps / 1500.0;
    if (isShort_(pkt.flow)) {
      shortDelayUs_.add(delayUs);
      shortQueueLenPkts_.add(lenPkts);
      intervalShortDelaySum_ += delayUs;
      ++intervalShortCount_;
    } else {
      longDelayUs_.observe(delayUs);
      longQueueLenPkts_.observe(lenPkts);
    }
  }

  /// Close the current sampling interval; emits the interval's mean
  /// short-flow queueing delay into the time series.
  void rollInterval(SimTime now) {
    const double mean =
        intervalShortCount_ > 0
            ? intervalShortDelaySum_ / static_cast<double>(intervalShortCount_)
            : 0.0;
    shortDelaySeries_.add(now, mean);
    intervalShortDelaySum_ = 0.0;
    intervalShortCount_ = 0;
  }

  const SampleSet& shortDelayUs() const { return shortDelayUs_; }
  const obs::Histogram& longDelayUs() const { return longDelayUs_; }
  const SampleSet& shortQueueLenPkts() const { return shortQueueLenPkts_; }
  const obs::Histogram& longQueueLenPkts() const { return longQueueLenPkts_; }
  const obs::Series& shortDelaySeries() const { return shortDelaySeries_; }

  /// The short-flow samples and series, moved out into a run's result
  /// once the run is over; the monitor is not read after.
  SampleSet takeShortDelayUs() { return std::move(shortDelayUs_); }
  SampleSet takeShortQueueLenPkts() { return std::move(shortQueueLenPkts_); }
  obs::Series takeShortDelaySeries() { return std::move(shortDelaySeries_); }

 private:
  Classifier isShort_;
  SampleSet shortDelayUs_;
  obs::Histogram longDelayUs_;
  SampleSet shortQueueLenPkts_;
  obs::Histogram longQueueLenPkts_;
  obs::Series shortDelaySeries_;
  double intervalShortDelaySum_ = 0.0;
  std::uint64_t intervalShortCount_ = 0;
};

}  // namespace tlbsim::stats
