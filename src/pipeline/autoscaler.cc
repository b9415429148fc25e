#include "pipeline/autoscaler.h"

#include <algorithm>

namespace countlib {
namespace pipeline {

Result<std::unique_ptr<Autoscaler>> Autoscaler::Make(
    IngestPipeline* pipeline, const AutoscalerConfig& config) {
  if (pipeline == nullptr) {
    return Status::InvalidArgument("Autoscaler: pipeline must not be null");
  }
  AutoscalerConfig resolved = config;
  // SetWorkerCount clamps every pool size to the pipeline's ceiling
  // (producer slots, store lanes), so a target above it is a no-op resize.
  const uint64_t ceiling = pipeline->max_workers();
  if (resolved.max_workers == 0) resolved.max_workers = ceiling;
  if (resolved.min_workers < 1) {
    return Status::InvalidArgument("Autoscaler: min_workers >= 1");
  }
  if (resolved.min_workers > ceiling) {
    // A higher floor could never be reached — the control loop would
    // issue a futile resize every cooldown window forever.
    return Status::InvalidArgument(
        "Autoscaler: min_workers exceeds the pipeline's worker ceiling "
        "(unreachable floor)");
  }
  if (resolved.max_workers < resolved.min_workers ||
      resolved.max_workers > 256) {
    return Status::InvalidArgument(
        "Autoscaler: max_workers in [min_workers, 256]");
  }
  // A ceiling above the pipeline's would count no-op resizes as scale-ups.
  resolved.max_workers = std::min(resolved.max_workers, ceiling);
  if (resolved.sample_interval.count() <= 0) {
    return Status::InvalidArgument("Autoscaler: sample_interval > 0");
  }
  if (resolved.cooldown.count() < 0) {
    return Status::InvalidArgument("Autoscaler: cooldown >= 0");
  }
  if (resolved.scale_up_queue_depth < 1) {
    // A zero up-threshold votes "grow" on an empty pipeline every sample:
    // the pool pins at max_workers and the down path is unreachable.
    return Status::InvalidArgument("Autoscaler: scale_up_queue_depth >= 1");
  }
  if (resolved.scale_down_queue_depth >= resolved.scale_up_queue_depth) {
    return Status::InvalidArgument(
        "Autoscaler: scale_down_queue_depth < scale_up_queue_depth");
  }
  if (resolved.scale_up_samples < 1 || resolved.scale_down_samples < 1) {
    return Status::InvalidArgument(
        "Autoscaler: scale_up/down_samples >= 1 (hysteresis lengths)");
  }
  if (resolved.shrink_step < 1) {
    return Status::InvalidArgument("Autoscaler: shrink_step >= 1");
  }
  return std::unique_ptr<Autoscaler>(new Autoscaler(pipeline, resolved));
}

Autoscaler::Autoscaler(IngestPipeline* pipeline,
                       const AutoscalerConfig& resolved)
    : pipeline_(pipeline), config_(resolved) {
  // Start the cooldown window open so the first decided vote can act.
  last_resize_ = std::chrono::steady_clock::now() - config_.cooldown;
  last_idle_passes_ = pipeline_->Stats().idle_passes;
  if (config_.enable_metrics) RegisterMetrics();
  control_ = std::thread([this] { ControlLoop(); });
}

void Autoscaler::RegisterMetrics() {
  obs::Registry& reg = obs::Registry::Default();
  const auto counter_gauge = [](const std::atomic<uint64_t>* cell) {
    return [cell] {
      // mo: relaxed — stats cells written only by the control thread;
      // export needs some recent value, not ordering.
      return static_cast<double>(cell->load(std::memory_order_relaxed));
    };
  };
  registrations_.push_back(reg.RegisterGauge(
      "countlib_autoscaler_samples_total", counter_gauge(&samples_),
      obs::GaugeKind::kCounterGauge));
  registrations_.push_back(reg.RegisterGauge(
      "countlib_autoscaler_scale_ups_total", counter_gauge(&scale_ups_),
      obs::GaugeKind::kCounterGauge));
  registrations_.push_back(reg.RegisterGauge(
      "countlib_autoscaler_scale_downs_total", counter_gauge(&scale_downs_),
      obs::GaugeKind::kCounterGauge));
  // First-class must-stay-zero invariant: a failed resize means the
  // control loop asked for an impossible pool size.
  registrations_.push_back(reg.RegisterGauge(
      "countlib_autoscaler_resize_errors_total",
      counter_gauge(&resize_errors_), obs::GaugeKind::kCounterGauge));
  registrations_.push_back(reg.RegisterGauge(
      "countlib_autoscaler_workers", counter_gauge(&current_workers_)));
}

Autoscaler::~Autoscaler() { Stop(); }

void Autoscaler::Stop() {
  // mo: seq_cst — the flag must precede the notify's epoch bump in the
  // single total order, so a control thread that registered as a waiter
  // either receives the notify or reads the flag (EventCount's Dekker
  // discipline; see util/event_count.h).
  stop_requested_.store(true, std::memory_order_seq_cst);
  stop_ec_.NotifyIfWaiters();
  if (control_.joinable()) control_.join();
}

bool Autoscaler::Tick() {
  const PipelineStats stats = pipeline_->Stats();
  // mo: relaxed ×3 — control-thread-only stats cells; Stats()/gauge
  // readers fold them without ordering requirements.
  samples_.fetch_add(1, std::memory_order_relaxed);
  last_queue_depth_.store(stats.queue_depth, std::memory_order_relaxed);
  current_workers_.store(stats.workers, std::memory_order_relaxed);
  const uint64_t idle_delta = stats.idle_passes - last_idle_passes_;
  last_idle_passes_ = stats.idle_passes;

  // Vote on the ring backlog. "Up" needs depth alone; "down" additionally
  // wants evidence of slack — idle passes since the last sample, or a
  // worker caught between drains — so a pool that is exactly keeping a
  // shallow queue shallow is left alone.
  if (stats.queue_depth >= config_.scale_up_queue_depth) {
    ++up_streak_;
    down_streak_ = 0;
  } else if (stats.queue_depth <= config_.scale_down_queue_depth &&
             (idle_delta > 0 || stats.busy_workers < stats.workers)) {
    ++down_streak_;
    up_streak_ = 0;
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }

  uint64_t target = stats.workers;
  if (up_streak_ >= config_.scale_up_samples) {
    target = config_.grow_step == 0 ? stats.workers * 2
                                    : stats.workers + config_.grow_step;
    // The floor also rescues a manually paused pipeline (workers == 0,
    // where doubling would stay 0): a backlog vote un-pauses it.
    target = std::max(target, config_.min_workers);
    target = std::min(target, config_.max_workers);
  } else if (down_streak_ >= config_.scale_down_samples) {
    target = stats.workers > config_.min_workers + config_.shrink_step
                 ? stats.workers - config_.shrink_step
                 : config_.min_workers;
  }
  if (target == stats.workers) return true;

  const auto now = std::chrono::steady_clock::now();
  if (now - last_resize_ < config_.cooldown) {
    // Hold the decision (and the streak) until the window reopens.
    // mo: relaxed — stats cell (see Tick's header note).
    cooldown_holds_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  const Status st = pipeline_->SetWorkerCount(target);
  if (st.IsFailedPrecondition()) return false;  // draining: retire the loop
  if (!st.ok()) {
    // mo: relaxed — stats cell.
    resize_errors_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  last_resize_ = now;
  up_streak_ = 0;
  down_streak_ = 0;
  if (target > stats.workers) {
    // mo: relaxed — stats cell.
    scale_ups_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // mo: relaxed — stats cell.
    scale_downs_.fetch_add(1, std::memory_order_relaxed);
  }
  // mo: relaxed — stats cell refreshed after the resize took effect.
  current_workers_.store(pipeline_->num_workers(), std::memory_order_relaxed);
  return true;
}

void Autoscaler::ControlLoop() {
  const auto stopped = [this] {
    // mo: seq_cst — ordered after the waiter-registration RMW inside the
    // park, so a Stop that missed the registration is still seen here.
    return stop_requested_.load(std::memory_order_seq_cst);
  };
  while (!stopped()) {
    // Park between samples; Stop's notify moves the epoch and ends the
    // wait early, so shutdown never has to ride out a sample interval.
    // Standard episode shape: snapshot, recheck, park on the snapshot.
    const uint64_t epoch = stop_ec_.Epoch();
    if (stopped()) return;
    stop_ec_.ParkOne(epoch, stopped, config_.sample_interval);
    if (stopped()) return;
    if (!Tick()) {
      // Pipeline is draining: SetWorkerCount can never succeed again, so
      // sampling is pure noise. Park until Stop.
      stop_ec_.ParkUntil(stopped, config_.sample_interval);
      return;
    }
  }
}

AutoscalerStats Autoscaler::Stats() const {
  AutoscalerStats stats;
  // mo: relaxed ×7 — snapshot of independent stats cells; each field is
  // individually fresh, the set is not one atomic cut.
  stats.samples = samples_.load(std::memory_order_relaxed);
  stats.scale_ups = scale_ups_.load(std::memory_order_relaxed);
  stats.scale_downs = scale_downs_.load(std::memory_order_relaxed);
  stats.cooldown_holds = cooldown_holds_.load(std::memory_order_relaxed);
  stats.resize_errors = resize_errors_.load(std::memory_order_relaxed);
  stats.last_queue_depth = last_queue_depth_.load(std::memory_order_relaxed);
  stats.current_workers = current_workers_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace pipeline
}  // namespace countlib
