// The load generator: writer connections over loopback (closed loop, or
// open loop on a fixed schedule) plus the scheduled reader, run against a
// started System.

#ifndef E2EBENCH_LIVE_H_
#define E2EBENCH_LIVE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "sut.h"
#include "util/status.h"

namespace e2ebench {

/// One writer connection and how far it has replayed its trace.
struct Conn {
  std::unique_ptr<countlib::net::EventClient> client;
  uint64_t sent = 0;         ///< trace events submitted (cyclic replay)
  uint64_t warmup_sent = 0;  ///< warm-up events submitted (every key once)
};

/// Opens one connection per writer.
countlib::Status ConnectAll(const System& sys, std::vector<Conn>* conns);

/// Every connection submits every key once and flushes (the warm-up, so no
/// key is first inserted inside the measured window).
countlib::Status Warmup(const WorkloadSpec& spec, std::vector<Conn>* conns);

struct LiveResult {
  double wall_s = 0;
  uint64_t events_applied = 0;  ///< pipeline events applied during the run
  uint64_t events_sent = 0;     ///< trace events the writers submitted
  uint64_t process_cpu_ns = 0;
  uint64_t writer_cpu_ns = 0;  ///< the writer connections' threads
  uint64_t reader_cpu_ns = 0;  ///< the point-read thread
  /// Per window (the first dropped): applied events/s and process CPU ns
  /// per applied event. A window is 0.25 s, or one TopK period on a
  /// workload with a TopK schedule, so that every window holds one TopK.
  std::vector<double> window_eps;
  std::vector<double> window_cpu_ns;
  std::vector<double> ack_us;        ///< open-loop batch, due -> Flush returned
  std::vector<double> read_point_us; ///< Estimate, due -> returned
  std::vector<double> read_topk_ms;  ///< TopK, due -> returned
  std::vector<double> lateness_us;   ///< scheduled op start - due, all ops
  uint64_t write_errors = 0;
  uint64_t reads_issued = 0;
  uint64_t read_errors = 0;
  uint64_t reads_not_found = 0;
  double reader_busy_ns = 0;    ///< time inside reader calls
};

/// Runs the workload's traffic and reads for `seconds`. With `spans`
/// non-null every layer call the generator makes is recorded.
LiveResult RunLive(const WorkloadSpec& spec, const Inputs& inputs, System* sys,
                   std::vector<Conn>* conns, double seconds, SpanLog* spans);

/// Unloaded latencies, measured after the window with no other traffic:
/// serial SubmitBatch+Flush batches (alternating connections), then, on
/// workloads without a live reader, Estimate calls and TopK calls.
struct ProbeResult {
  std::vector<double> ack_us;
  std::vector<double> read_point_us;
  std::vector<double> read_topk_ms;
  uint64_t ops = 0;
  uint64_t errors = 0;
};
ProbeResult RunProbes(const WorkloadSpec& spec, const Inputs& inputs,
                      System* sys, std::vector<Conn>* conns);

}  // namespace e2ebench

#endif  // E2EBENCH_LIVE_H_
