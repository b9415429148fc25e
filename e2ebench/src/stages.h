// Isolation stages of the traced run. Each replays the workload's own
// inputs through one layer's public functions and times the benchmark's
// calls into it, with nothing else running:
//   W  wire: EncodeFrameHeader + EncodeEventBatch, and their decoders
//   P  pipeline: in-process TrySubmit over a no-op CounterWriter into
//      paused rings, then the workers drain them: each half's own work
//   S  store: the live run's pre-aggregated batches (captured by a
//      RecordingWriter) replayed into a fresh ShardedCounterStore
//   C  core: Counter::IncrementMany at the captured weights, and the slot
//      codec (SerializeState + DeserializeState)
//   R  reads: Estimate and TopK on the stage-S store

#ifndef E2EBENCH_STAGES_H_
#define E2EBENCH_STAGES_H_

#include <cstdint>

#include "common.h"
#include "sut.h"

namespace e2ebench {

struct StageCosts {
  double encode_ns_per_event = 0;
  double decode_ns_per_event = 0;
  double pipeline_submit_ns_per_event = 0;  ///< submitting thread's CPU
  double pipeline_drain_ns_per_event = 0;   ///< worker CPU while draining
  double apply_ns_per_update = 0;
  double apply_ns_per_event = 0;
  double increment_ns = 0;
  double codec_ns = 0;
  double estimate_us_p50 = 0;
  double estimate_us_p99 = 0;
  double topk_ms_p50 = 0;
  uint64_t stage_events = 0;     ///< events pushed through stages W and P
  uint64_t replay_updates = 0;   ///< updates replayed in stage S
  uint64_t replay_events = 0;
  uint64_t estimate_samples = 0;
  uint64_t topk_samples = 0;
  uint64_t errors = 0;           ///< failed calls inside the stages
};

/// Runs stages W, P, S, C and R in order. `recorded` holds the live run's
/// batches; `slowdown_ns_per_update` > 0 routes stage S through
/// SlowWriter, as the live run did.
StageCosts RunStages(const WorkloadSpec& spec, const Inputs& inputs,
                     uint64_t seed, double slowdown_ns_per_update,
                     const RecordingWriter& recorded, SpanLog* spans);

}  // namespace e2ebench

#endif  // E2EBENCH_STAGES_H_
