// A fixed reference kernel, timed next to every untraced repetition so
// that run.py can express host times at one machine speed.
//
// On a shared host the same binary runs tens of percent faster or slower
// from one minute to the next. The kernel does the simulator's kind of
// work (pop and push on an event heap, a hash-map lookup per event, a
// data-dependent branch, small allocations) without calling the simulator,
// so it slows down with the machine but no change to src/ can move it.
#pragma once

#include <cstdint>

namespace perfbench {

struct ReferenceResult {
  double seconds = 0.0;
  /// Folded to 48 bits so the value is exact as a JSON number; the same
  /// on every run, which shows the kernel did the same work.
  std::uint64_t checksum = 0;
};

/// Builds the kernel's state untimed, then times its event loop.
ReferenceResult runReference();

}  // namespace perfbench
