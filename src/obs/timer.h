/// \file timer.h
/// \brief Timing helpers for the obs layer: the coarse ticker that makes
/// per-event timestamps affordable, and a real steady-clock read.
///
/// Two clocks, two cost profiles:
///
///  - `CoarseClock::NowNanos()` — one relaxed atomic load (~1ns). The
///    value is a steady-clock nanosecond reading refreshed by a running
///    `MetricsCollector` every `CollectorOptions::tick_interval` (default
///    250µs), so it is exactly as stale as one tick. This is the clock the
///    ingest hot path stamps events with: a real `clock_gettime` per event
///    would eat the <5% instrumentation budget on its own, a relaxed load
///    cannot. When no collector is running the tick is 0 and callers skip
///    latency recording entirely — an idle process pays nothing.
///  - `CoarseClock::RealNowNanos()` — an actual steady-clock read (vDSO,
///    ~20ns). For per-batch / per-park measurements where one call
///    amortizes over many events or a long wait.

#ifndef COUNTLIB_OBS_TIMER_H_
#define COUNTLIB_OBS_TIMER_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace countlib {
namespace obs {

/// \brief Process-wide coarse timestamp source (see file comment).
class CoarseClock {
 public:
  /// The latest tick in steady-clock nanoseconds; 0 when no ticker is
  /// running (callers treat 0 as "do not record").
  static uint64_t NowNanos() noexcept {
    // mo: relaxed — a timestamp cell; staleness is bounded by the ticker
    // cadence, not by memory ordering, and readers tolerate any tick.
    return tick_.load(std::memory_order_relaxed);
  }

  /// Publishes a tick. Called by the `MetricsCollector` loop; tests may
  /// drive it manually. Set 0 to declare the ticker stopped.
  static void Set(uint64_t nanos) noexcept {
    // mo: relaxed — see NowNanos; the tick orders against nothing.
    tick_.store(nanos, std::memory_order_relaxed);
  }

  /// A real steady-clock reading in nanoseconds (never 0 in practice; the
  /// coarse tick is seeded from this).
  static uint64_t RealNowNanos() noexcept {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  static std::atomic<uint64_t> tick_;
};

}  // namespace obs
}  // namespace countlib

#endif  // COUNTLIB_OBS_TIMER_H_
