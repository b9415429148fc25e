#include "live.h"

#include <algorithm>
#include <atomic>
#include <thread>

namespace e2ebench {

using countlib::Status;
using countlib::net::EventRecord;

namespace {

constexpr uint64_t kChunkEvents = 512;  // one client frame
constexpr uint64_t kWindowNs = 250000000;
constexpr uint64_t kProbeBatches = 1000;
constexpr uint64_t kProbeEstimates = 2000;
constexpr uint64_t kProbeTopK = 2;

/// What one generator thread measured; merged after the threads joined.
struct ThreadTally {
  std::vector<double> lateness_us;
  std::vector<double> ack_us;
  std::vector<double> read_us;
  uint64_t write_errors = 0;
  uint64_t reads_issued = 0;
  uint64_t read_errors = 0;
  uint64_t reads_not_found = 0;
  double busy_ns = 0;
  uint64_t cpu_ns = 0;  ///< the generator thread's own CPU
};

/// Cyclic cursor over a connection's trace.
class Cursor {
 public:
  Cursor(const std::vector<uint32_t>& ranks, uint64_t start)
      : ranks_(ranks), idx_(start % ranks.size()) {}
  uint64_t NextKey() {
    const uint64_t key = KeyOfRank(ranks_[idx_]);
    if (++idx_ == ranks_.size()) idx_ = 0;
    return key;
  }

 private:
  const std::vector<uint32_t>& ranks_;
  uint64_t idx_;
};

void ClosedLoopWriter(const std::vector<uint32_t>& ranks, uint64_t conn_id,
                      Conn* conn, const std::atomic<bool>& stop,
                      std::vector<Span>* sp, ThreadTally* tally) {
  // Counters stay in locals inside the loop: the Conn and tally objects of
  // the two writers share cache lines.
  Cursor cursor(ranks, conn->sent);
  countlib::net::EventClient* client = conn->client.get();
  uint64_t sent = 0;
  bool healthy = true;
  // mo: relaxed — a stop hint; joins order everything that matters.
  for (uint64_t chunk = 0; healthy && !stop.load(std::memory_order_relaxed);
       ++chunk) {
    ScopedSpan span(sp, "client.submit", "loadgen.conn",
                    (conn_id << 48) | chunk, kChunkEvents);
    for (uint64_t i = 0; i < kChunkEvents; ++i) {
      if (!client->Submit(cursor.NextKey()).ok()) {
        healthy = false;
        break;
      }
      ++sent;
    }
  }
  conn->sent += sent;
  if (!healthy) ++tally->write_errors;
  ScopedSpan span(sp, "client.flush", "loadgen.conn", conn_id << 48, 0);
  if (!client->Flush().ok()) ++tally->write_errors;
}

/// Sends one kBatchEvents batch (SubmitBatch + Flush) every `period_ns`
/// from `start_ns` until `end_ns`. A late batch is sent at once, so the
/// generator catches up after a stall; each ack is timed from its due time.
void OpenLoopWriter(const std::vector<uint32_t>& ranks, uint64_t conn_id,
                    Conn* conn, uint64_t start_ns, uint64_t end_ns,
                    double period_ns, std::vector<Span>* sp,
                    ThreadTally* tally) {
  Cursor cursor(ranks, conn->sent);
  countlib::net::EventClient* client = conn->client.get();
  std::vector<EventRecord> batch(kBatchEvents);
  uint64_t sent = 0;
  for (uint64_t i = 0;; ++i) {
    const uint64_t due = start_ns + static_cast<uint64_t>(period_ns * i);
    if (due >= end_ns) break;
    SleepUntilNs(due);
    tally->lateness_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    for (EventRecord& r : batch) r = EventRecord{cursor.NextKey(), 1};
    ScopedSpan span(sp, "client.submit", "loadgen.conn",
                    (conn_id << 48) | i, kBatchEvents);
    if (!client->SubmitBatch(batch.data(), batch.size()).ok() ||
        !client->Flush().ok()) {
      ++tally->write_errors;
      break;
    }
    span.Close();
    tally->ack_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
    sent += batch.size();
  }
  conn->sent += sent;
}

void PointReader(const WorkloadSpec& spec, const Inputs& in,
                 const countlib::analytics::CounterReader* store,
                 uint64_t start_ns, uint64_t end_ns, std::vector<Span>* sp,
                 ThreadTally* tally) {
  const double period_ns = 1e9 / spec.estimate_hz;
  for (uint64_t i = 0;; ++i) {
    const uint64_t due = start_ns + static_cast<uint64_t>(period_ns * i);
    if (due >= end_ns) break;
    SleepUntilNs(due);
    const uint64_t t0 = NowNs();
    tally->lateness_us.push_back(static_cast<double>(t0 - due) / 1e3);
    const uint64_t key =
        KeyOfRank(in.reader_ranks[i % in.reader_ranks.size()]);
    ScopedSpan span(sp, "reader.estimate", "", i, 0);
    const auto est = store->Estimate(key);
    span.Close();
    const uint64_t t1 = NowNs();
    ++tally->reads_issued;
    if (!est.ok()) {
      if (est.status().IsNotFound()) {
        ++tally->reads_not_found;
      } else {
        ++tally->read_errors;
      }
    }
    tally->read_us.push_back(static_cast<double>(t1 - due) / 1e3);
    tally->busy_ns += static_cast<double>(t1 - t0);
  }
}

}  // namespace

Status ConnectAll(const System& sys, std::vector<Conn>* conns) {
  conns->clear();
  for (uint64_t c = 0; c < kConnections; ++c) {
    Conn conn;
    COUNTLIB_ASSIGN_OR_RETURN(conn.client, sys.Connect());
    conns->push_back(std::move(conn));
  }
  return Status::OK();
}

Status Warmup(const WorkloadSpec& spec, std::vector<Conn>* conns) {
  std::vector<Status> results(conns->size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&spec, &results, conns, c] {
      Conn& conn = (*conns)[c];
      for (uint64_t r = 0; r < spec.num_keys; ++r) {
        const Status st = conn.client->Submit(KeyOfRank(r));
        if (!st.ok()) {
          results[c] = st;
          return;
        }
        ++conn.warmup_sent;
      }
      results[c] = conn.client->Flush();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : results) COUNTLIB_RETURN_NOT_OK(st);
  return Status::OK();
}

LiveResult RunLive(const WorkloadSpec& spec, const Inputs& in, System* sys,
                   std::vector<Conn>* conns, double seconds, SpanLog* spans) {
  LiveResult res;
  std::atomic<bool> stop{false};
  std::vector<ThreadTally> tallies(conns->size() + 1);
  std::vector<std::vector<Span>*> buffers(conns->size() + 2, nullptr);
  if (spans != nullptr) {
    for (auto& b : buffers) b = spans->Buffer();
  }

  const auto applied = [sys] {
    return sys->pipeline()->Stats().events_applied;
  };
  const uint64_t applied0 = applied();
  const uint64_t cpu0 = ProcessCpuNs();
  uint64_t sent0 = 0;
  for (const Conn& c : *conns) sent0 += c.sent;
  const uint64_t start = NowNs() + 1000000;  // 1 ms for the threads to start
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);

  // Open loop: each connection's share of the offered rate, in batches.
  const double period_ns =
      spec.offered_eps > 0
          ? 1e9 * static_cast<double>(kBatchEvents * conns->size()) /
                spec.offered_eps
          : 0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      const uint64_t cpu0 = ThreadCpuNs();
      if (spec.offered_eps > 0) {
        OpenLoopWriter(in.conn_ranks[c], c, &(*conns)[c], start, end,
                       period_ns, buffers[c], &tallies[c]);
      } else {
        SleepUntilNs(start);
        ClosedLoopWriter(in.conn_ranks[c], c, &(*conns)[c], stop, buffers[c],
                         &tallies[c]);
      }
      tallies[c].cpu_ns = ThreadCpuNs() - cpu0;
    });
  }
  ThreadTally& reader_tally = tallies.back();
  if (spec.estimate_hz > 0) {
    threads.emplace_back([&] {
      const uint64_t cpu0 = ThreadCpuNs();
      PointReader(spec, in, sys->store(), start, end, buffers[conns->size()],
                  &reader_tally);
      reader_tally.cpu_ns = ThreadCpuNs() - cpu0;
    });
  }

  // This thread: the TopK dashboard schedule and the window sampler.
  // Windows span whole TopK periods, so each holds the same read load.
  std::vector<Span>* main_sp = buffers.back();
  std::vector<double> topk_ms, main_lateness_us;
  uint64_t topk_errors = 0;
  double topk_busy = 0;
  std::vector<uint64_t> win_t{start}, win_applied{applied0}, win_cpu{cpu0};
  SleepUntilNs(start);
  win_applied[0] = applied();
  win_cpu[0] = ProcessCpuNs();
  const double topk_period =
      spec.topk_hz > 0 ? 1e9 / spec.topk_hz : 2.0 * seconds * 1e9;
  const uint64_t window_ns =
      spec.topk_hz > 0 ? static_cast<uint64_t>(topk_period) : kWindowNs;
  uint64_t topk_i = 0;
  uint64_t next_win = start + window_ns;
  for (;;) {
    const uint64_t topk_due =
        start + static_cast<uint64_t>(topk_period * (0.5 + topk_i));
    const uint64_t next = std::min(std::min(topk_due, next_win), end);
    SleepUntilNs(next);
    const uint64_t now = NowNs();
    if (now >= next_win && next_win <= end) {
      main_lateness_us.push_back(static_cast<double>(now - next_win) / 1e3);
      win_t.push_back(now);
      win_applied.push_back(applied());
      win_cpu.push_back(ProcessCpuNs());
      next_win += window_ns;
    }
    if (now >= topk_due && topk_due < end) {
      main_lateness_us.push_back(static_cast<double>(now - topk_due) / 1e3);
      ScopedSpan span(main_sp, "reader.topk", "", topk_i, 0);
      const auto top = sys->store()->TopK(kTopK);
      span.Close();
      const uint64_t t1 = NowNs();
      if (!top.ok() || top.ValueOrDie().size() > kTopK) ++topk_errors;
      topk_ms.push_back(static_cast<double>(t1 - topk_due) / 1e6);
      topk_busy += static_cast<double>(t1 - now);
      ++topk_i;
    }
    if (now >= end) break;
  }
  // mo: relaxed — see ClosedLoopWriter.
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const uint64_t t_end = NowNs();

  res.wall_s = static_cast<double>(t_end - start) / 1e9;
  for (const Conn& c : *conns) res.events_sent += c.sent;
  res.events_sent -= sent0;
  res.events_applied = applied() - applied0;
  res.process_cpu_ns = ProcessCpuNs() - cpu0;
  for (size_t i = 2; i < win_t.size(); ++i) {  // the first window is ramp-up
    const double de = static_cast<double>(win_applied[i] - win_applied[i - 1]);
    const double dt = static_cast<double>(win_t[i] - win_t[i - 1]) / 1e9;
    if (de <= 0 || dt <= 0) continue;
    res.window_eps.push_back(de / dt);
    res.window_cpu_ns.push_back(
        static_cast<double>(win_cpu[i] - win_cpu[i - 1]) / de);
  }
  for (size_t i = 0; i < tallies.size(); ++i) {
    const ThreadTally& t = tallies[i];
    (i < conns->size() ? res.writer_cpu_ns : res.reader_cpu_ns) += t.cpu_ns;
    res.lateness_us.insert(res.lateness_us.end(), t.lateness_us.begin(),
                           t.lateness_us.end());
    res.read_point_us.insert(res.read_point_us.end(), t.read_us.begin(),
                             t.read_us.end());
    res.ack_us.insert(res.ack_us.end(), t.ack_us.begin(), t.ack_us.end());
    res.write_errors += t.write_errors;
    res.reads_issued += t.reads_issued;
    res.read_errors += t.read_errors;
    res.reads_not_found += t.reads_not_found;
    res.reader_busy_ns += t.busy_ns;
  }
  res.read_topk_ms = std::move(topk_ms);
  res.reads_issued += res.read_topk_ms.size();
  res.read_errors += topk_errors;
  res.reader_busy_ns += topk_busy;
  res.lateness_us.insert(res.lateness_us.end(), main_lateness_us.begin(),
                         main_lateness_us.end());
  return res;
}

ProbeResult RunProbes(const WorkloadSpec& spec, const Inputs& in, System* sys,
                      std::vector<Conn>* conns) {
  ProbeResult res;
  std::vector<EventRecord> batch(kBatchEvents);
  for (uint64_t i = 0; i < kProbeBatches; ++i) {
    const size_t c = i % conns->size();
    Conn& conn = (*conns)[c];
    Cursor cursor(in.conn_ranks[c], conn.sent);
    for (EventRecord& r : batch) r = EventRecord{cursor.NextKey(), 1};
    const uint64_t t0 = NowNs();
    ++res.ops;
    if (!conn.client->SubmitBatch(batch.data(), batch.size()).ok() ||
        !conn.client->Flush().ok()) {
      ++res.errors;
      break;
    }
    res.ack_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    conn.sent += batch.size();
  }
  // A workload with a live reader reports its loaded read latencies.
  if (spec.estimate_hz > 0 || spec.topk_hz > 0) return res;
  for (uint64_t i = 0; i < kProbeEstimates; ++i) {
    const uint64_t key = KeyOfRank(in.reader_ranks[i % in.reader_ranks.size()]);
    const uint64_t t0 = NowNs();
    const auto est = sys->store()->Estimate(key);
    res.read_point_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++res.ops;
    if (!est.ok() && !est.status().IsNotFound()) ++res.errors;
  }
  for (uint64_t i = 0; i < kProbeTopK; ++i) {
    const uint64_t t0 = NowNs();
    const auto top = sys->store()->TopK(kTopK);
    res.read_topk_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    ++res.ops;
    if (!top.ok()) ++res.errors;
  }
  return res;
}

}  // namespace e2ebench
