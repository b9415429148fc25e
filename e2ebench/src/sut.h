// The workloads, their seeded inputs, and the system under test: a
// ShardedCounterStore behind an IngestPipeline behind an EventServer, with
// EventClient connections over loopback. Also the benchmark-owned
// CounterWriter decorators that stage S and the self-test use.

#ifndef E2EBENCH_SUT_H_
#define E2EBENCH_SUT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analytics/sharded_counter_store.h"
#include "analytics/store_interface.h"
#include "core/counter_factory.h"
#include "net/client.h"
#include "net/server.h"
#include "pipeline/ingest_pipeline.h"
#include "util/status.h"

namespace e2ebench {

/// Shape shared by every workload.
constexpr uint64_t kConnections = 2;  ///< writer connections, one thread each
constexpr uint64_t kWorkers = 2;      ///< pipeline drain workers
constexpr uint64_t kShards = 2;       ///< store shards, one lane per worker
constexpr uint64_t kNMax = (uint64_t{1} << 32) - 1;  ///< counters' n_max
constexpr uint64_t kTopK = 100;       ///< k of every TopK call
/// Events per SubmitBatch + Flush in the latency probe.
constexpr uint64_t kBatchEvents = 1024;
/// Length of each connection's pre-generated trace (replayed cyclically).
constexpr uint64_t kTraceEventsPerConn = uint64_t{1} << 21;

/// One workload: traffic shape, counter configuration and reader schedule.
/// Connections stream Submit in a closed loop, as fast as credits allow,
/// unless the workload offers a fixed rate.
struct WorkloadSpec {
  std::string name;
  countlib::CounterKind kind = countlib::CounterKind::kExact;
  int state_bits = 32;
  uint64_t num_keys = 0;
  double skew = 0;  ///< Zipf exponent; 0 = uniform
  /// > 0: open loop, every connection sends a kBatchEvents batch
  /// (SubmitBatch + Flush) on a fixed schedule; together they offer this
  /// many events/s.
  double offered_eps = 0;
  /// Untimed pass in which every connection submits every key once.
  bool warmup = false;
  /// Live reader schedule next to the writers: point reads on one reader
  /// thread, TopK on the controlling thread. 0 = none.
  double estimate_hz = 0;
  double topk_hz = 0;
  /// A run is split into this many rounds, each on a fresh system.
  int rounds = 0;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Seeded inputs, generated before anything is timed. Traces hold Zipf
/// ranks; the key sent for rank r is KeyOfRank(r).
struct Inputs {
  std::vector<std::vector<uint32_t>> conn_ranks;  ///< one trace per connection
  std::vector<uint32_t> reader_ranks;             ///< point-read keys
};
Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// Forwards every batch to `inner` and, while armed, copies it (per lane,
/// up to a cap on recorded events): stage S replays the live batches into
/// a fresh store.
class RecordingWriter final : public countlib::analytics::CounterWriter {
 public:
  using Batch = std::vector<countlib::analytics::KeyWeight>;
  RecordingWriter(countlib::analytics::CounterWriter* inner,
                  uint64_t max_events_per_lane);
  uint64_t num_lanes() const override { return inner_->num_lanes(); }
  countlib::Status IncrementBatch(uint64_t lane,
                                  const countlib::analytics::KeyWeight* updates,
                                  size_t n) override;
  void Arm() { armed_.store(true, std::memory_order_release); }
  /// Recorded batches of `lane`; read only after the pipeline drained.
  const std::vector<Batch>& batches(uint64_t lane) const {
    return lanes_[lane].batches;
  }

 private:
  struct Lane {
    std::vector<Batch> batches;
    uint64_t events = 0;
  };
  countlib::analytics::CounterWriter* inner_;
  std::vector<Lane> lanes_;  ///< lane w is touched only by its writer
  uint64_t max_events_per_lane_;
  std::atomic<bool> armed_{false};
};

/// Seeded slowdown for the self-test: burns `ns_per_update` of thread CPU
/// per update before delegating to the real store.
class SlowWriter final : public countlib::analytics::CounterWriter {
 public:
  SlowWriter(countlib::analytics::CounterWriter* inner, double ns_per_update)
      : inner_(inner), ns_per_update_(ns_per_update) {}
  uint64_t num_lanes() const override { return inner_->num_lanes(); }
  countlib::Status IncrementBatch(uint64_t lane,
                                  const countlib::analytics::KeyWeight* updates,
                                  size_t n) override;

 private:
  countlib::analytics::CounterWriter* inner_;
  double ns_per_update_;
};

countlib::Result<std::unique_ptr<countlib::analytics::ShardedCounterStore>>
MakeStore(const WorkloadSpec& spec, uint64_t seed);

struct SystemOptions {
  double slowdown_ns_per_update = 0;  ///< > 0 wraps the store in SlowWriter
  /// > 0 puts a RecordingWriter in front of the store.
  uint64_t record_events_per_lane = 0;
};

/// The system under test. Destruction stops the server, then drains the
/// pipeline.
class System {
 public:
  static countlib::Result<std::unique_ptr<System>> Start(
      const WorkloadSpec& spec, uint64_t seed, const SystemOptions& options);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Stops the server and drains the pipeline (idempotent).
  countlib::Status Stop();

  countlib::analytics::ShardedCounterStore* store() { return store_.get(); }
  countlib::pipeline::IngestPipeline* pipeline() { return pipeline_.get(); }
  countlib::net::EventServer* server() { return server_.get(); }
  RecordingWriter* recorder() { return recorder_.get(); }
  /// Hands the recorder over (after Stop) so the store can be freed first.
  std::unique_ptr<RecordingWriter> TakeRecorder() { return std::move(recorder_); }
  /// Threads the pipeline started (its drain workers).
  const std::vector<int>& worker_tids() const { return worker_tids_; }

  countlib::Result<std::unique_ptr<countlib::net::EventClient>> Connect() const;

 private:
  System() = default;

  std::unique_ptr<countlib::analytics::ShardedCounterStore> store_;
  std::unique_ptr<RecordingWriter> recorder_;
  std::unique_ptr<SlowWriter> slow_;
  std::unique_ptr<countlib::pipeline::IngestPipeline> pipeline_;
  std::unique_ptr<countlib::net::EventServer> server_;
  std::vector<int> worker_tids_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SUT_H_
