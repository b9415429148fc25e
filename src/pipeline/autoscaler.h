/// \file autoscaler.h
/// \brief Queue-depth autoscaling policy driving
/// `IngestPipeline::SetWorkerCount` — the control loop the ROADMAP names
/// on top of the PR 2 resize mechanism.
///
/// A background control thread samples the pipeline on a fixed cadence
/// (`PipelineStats`: the queue-depth gauge, the idle-pass counter delta,
/// and the busy-worker gauge) and votes each sample on the queue depth —
/// the events waiting across all producer rings:
///
///  - **up** when the depth is at or above `scale_up_queue_depth` — the
///    pool is underwater regardless of what the workers are doing;
///  - **down** when the depth is at or below `scale_down_queue_depth`
///    AND the workers look slack (idle passes accumulated since the last
///    sample, or not every worker mid-drain at the instant of the sample).
///
/// Hysteresis and a cooldown keep the pool from flapping: a resize fires
/// only after `scale_up_samples` (resp. `scale_down_samples`) *consecutive*
/// votes in the same direction, any vote in the other direction resets the
/// streak, and after a resize no further resize fires until `cooldown` has
/// elapsed. Growth is multiplicative by default (double, clamped to
/// `max_workers`) so a burst is answered in O(log n) decisions; shrink is
/// linear (`shrink_step` at a time, clamped to `min_workers`) so a quiet
/// blip does not collapse the pool. Bursty traffic therefore grows the
/// pool within a few sample periods and quiet periods return it to
/// `min_workers`, with every decision observable via `AutoscalerStats`.
///
/// Lifecycle: `Make` validates the config — every inconsistent knob
/// combination (min above max, a zero sample cadence, thresholds out of
/// order, a floor the pipeline cannot host) is a `kInvalidArgument`
/// `Status` before the control thread exists, never undefined control-loop
/// behavior — and starts the control thread.
/// `Stop()` (idempotent, also run by the destructor) joins it. The
/// autoscaler never outlives its pipeline — stop it before destroying the
/// pipeline. Once the pipeline begins draining, `SetWorkerCount` reports
/// `kFailedPrecondition` and the control loop parks itself permanently, so
/// a forgotten autoscaler on a drained pipeline is harmless (but still
/// holds the pipeline pointer). Do not combine with manual
/// `SetWorkerCount(0)` pauses: the autoscaler's floor is `min_workers >= 1`
/// and it would promptly un-pause the pipeline.

#ifndef COUNTLIB_PIPELINE_AUTOSCALER_H_
#define COUNTLIB_PIPELINE_AUTOSCALER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "pipeline/ingest_pipeline.h"
#include "util/event_count.h"
#include "util/status.h"

namespace countlib {
namespace pipeline {

/// \brief Tuning knobs for `Autoscaler::Make`.
struct AutoscalerConfig {
  /// Pool floor: the autoscaler never shrinks below this many workers.
  /// Must be >= 1 (the autoscaler does not pause pipelines) and no larger
  /// than `IngestPipeline::max_workers()` (`SetWorkerCount` clamps there,
  /// so a higher floor could never be honored and would resize-churn
  /// forever).
  uint64_t min_workers = 1;
  /// Pool ceiling; 0 means `IngestPipeline::max_workers()`. Must be in
  /// [`min_workers`, 256] after resolution, and is clamped to the
  /// pipeline's ceiling.
  uint64_t max_workers = 0;
  /// How often the control thread samples the pipeline and votes.
  std::chrono::milliseconds sample_interval{50};
  /// Minimum time between two resizes, regardless of votes. Bounds the
  /// rate of join-barrier re-partitions the pipeline pays for.
  std::chrono::milliseconds cooldown{250};
  /// Vote up when the queue-depth gauge (events waiting across all rings)
  /// is >= this. Must be >= 1. Size it well below total ring capacity so
  /// growth starts before producers hit sustained backpressure.
  uint64_t scale_up_queue_depth = 4096;
  /// Consecutive up votes required before growing (hysteresis).
  uint64_t scale_up_samples = 2;
  /// Vote down when the queue-depth gauge is <= this and the workers show
  /// slack (idle passes since the last sample, or an off-duty worker at
  /// sample time). Must be < `scale_up_queue_depth`.
  uint64_t scale_down_queue_depth = 256;
  /// Consecutive down votes required before shrinking. Typically larger
  /// than `scale_up_samples`: growing late loses throughput, shrinking
  /// late only wastes a mostly-parked thread.
  uint64_t scale_down_samples = 6;
  /// Workers added per grow decision; 0 doubles the pool instead (the
  /// default — answers a burst in O(log n) resizes).
  uint64_t grow_step = 0;
  /// Workers removed per shrink decision. Must be >= 1.
  uint64_t shrink_step = 1;
  /// Register the control loop's counters (`countlib_autoscaler_*`, see
  /// obs/README.md) with `obs::Registry::Default()` for the autoscaler's
  /// lifetime.
  bool enable_metrics = false;
};

/// \brief Control-loop activity counters plus the latest sample, taken
/// with `Autoscaler::Stats`.
struct AutoscalerStats {
  uint64_t samples = 0;          ///< control-loop ticks that sampled the pipeline
  uint64_t scale_ups = 0;        ///< grow resizes issued
  uint64_t scale_downs = 0;      ///< shrink resizes issued
  uint64_t cooldown_holds = 0;   ///< decided votes suppressed by the cooldown window
  uint64_t resize_errors = 0;    ///< SetWorkerCount calls that failed (excluding draining)
  uint64_t last_queue_depth = 0; ///< queue-depth gauge at the latest sample
  uint64_t current_workers = 0;  ///< worker-count gauge at the latest sample
};

/// \brief Background queue-depth autoscaler for one `IngestPipeline`.
class Autoscaler {
 public:
  /// Validates `config` against `pipeline` and starts the control thread.
  /// The pipeline is not owned and must outlive the autoscaler.
  static Result<std::unique_ptr<Autoscaler>> Make(
      IngestPipeline* pipeline, const AutoscalerConfig& config);

  /// Stops the control thread (`Stop`).
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  /// Joins the control thread; no further resizes fire. Idempotent.
  void Stop();

  /// Snapshot of the control loop's counters and latest sample.
  AutoscalerStats Stats() const;

  /// The resolved ceiling: `config.max_workers` (the pipeline's
  /// `max_workers()` when that was 0), clamped to the pipeline's ceiling.
  uint64_t max_workers() const { return config_.max_workers; }

 private:
  Autoscaler(IngestPipeline* pipeline, const AutoscalerConfig& resolved);

  /// One sample-vote-maybe-resize step; returns false when the control
  /// loop should exit (the pipeline is draining).
  bool Tick();

  void ControlLoop();

  /// Registers the stats atomics as callback metrics (ctor helper,
  /// `enable_metrics` only). Cumulative fields export as
  /// `GaugeKind::kCounterGauge` so the Prometheus type is `counter`.
  void RegisterMetrics();

  IngestPipeline* pipeline_;
  const AutoscalerConfig config_;

  std::thread control_;
  /// Shutdown signal: `Stop` sets the flag and notifies the eventcount;
  /// the control thread parks between samples on `stop_ec_` with the
  /// sample interval as its backstop, so shutdown never rides out a full
  /// interval. Same primitive (and Dekker discipline) as every other
  /// blocking wait in the pipeline — no raw CV.
  std::atomic<bool> stop_requested_{false};
  EventCount stop_ec_;

  // Control-loop state (touched only by the control thread).
  uint64_t up_streak_ = 0;
  uint64_t down_streak_ = 0;
  uint64_t last_idle_passes_ = 0;
  std::chrono::steady_clock::time_point last_resize_;

  std::atomic<uint64_t> samples_{0};
  std::atomic<uint64_t> scale_ups_{0};
  std::atomic<uint64_t> scale_downs_{0};
  std::atomic<uint64_t> cooldown_holds_{0};
  std::atomic<uint64_t> resize_errors_{0};
  std::atomic<uint64_t> last_queue_depth_{0};
  std::atomic<uint64_t> current_workers_{0};

  /// Registry handles; the callbacks capture `this`, so this member is
  /// declared last (destroyed first, releasing every registration before
  /// the atomics above die).
  std::vector<obs::Registration> registrations_;
};

}  // namespace pipeline
}  // namespace countlib

#endif  // COUNTLIB_PIPELINE_AUTOSCALER_H_
