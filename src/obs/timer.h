/// \file timer.h
/// \brief The one telemetry clock of the obs layer.
///
/// `NowNanos()` is a steady-clock read (vDSO `clock_gettime`, tens of
/// nanoseconds). Every latency countlib exports is a difference of two
/// readings of it, so the histograms resolve nanoseconds and need no
/// background thread. Hot paths keep the cost down by reading it rarely,
/// not by reading a cheaper clock: the ingest pipeline reads it once per
/// submit call that holds one of its 1-in-64 samples, at the start of a
/// drain pass and once more after an applied batch, and the park and merge
/// paths bracket each park episode or shard merge with two reads.

#ifndef COUNTLIB_OBS_TIMER_H_
#define COUNTLIB_OBS_TIMER_H_

#include <chrono>
#include <cstdint>

namespace countlib {
namespace obs {

/// Steady-clock nanoseconds since an arbitrary epoch. Monotonic, and
/// nonzero in practice (the epoch is boot time on Linux), so callers may
/// use 0 as "no timestamp".
inline uint64_t NowNanos() noexcept {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace obs
}  // namespace countlib

#endif  // COUNTLIB_OBS_TIMER_H_
