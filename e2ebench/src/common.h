// Clocks, order statistics, RSS and the in-memory span log shared by the
// benchmark's live runs and isolation stages.

#ifndef E2EBENCH_COMMON_H_
#define E2EBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// Monotonic wall clock in nanoseconds.
uint64_t NowNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
uint64_t ThreadCpuNs();
/// CPU time of the whole process, all threads (CLOCK_PROCESS_CPUTIME_ID).
uint64_t ProcessCpuNs();
/// Thread ids of this process (/proc/self/task).
std::vector<int> ListThreads();
/// CPU time of thread `tid` of this process (/proc/self/task/TID/schedstat);
/// 0 if the thread is gone.
uint64_t ThreadCpuNsOf(int tid);
/// The calling thread's id.
int CurrentTid();
/// Resident set size in bytes (/proc/self/statm).
uint64_t RssBytes();
/// Sleeps until the monotonic clock reads `deadline_ns`.
void SleepUntilNs(uint64_t deadline_ns);

/// Nearest-rank percentile, `q` in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Samples strictly above the `q` percentile (for the ">= 10 beyond" rule).
uint64_t SamplesBeyond(const std::vector<double>& v, double q);

/// One timed interval at a layer boundary. Spans of one batch share `id`;
/// `parent` names the enclosing span's `name` (empty for a root).
struct Span {
  const char* name = "";
  const char* parent = "";
  uint64_t id = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;   ///< thread CPU spent inside the span
  uint64_t events = 0;   ///< events the span carried
};

/// Per-thread span buffers, merged and written out when the run ends.
/// `Buffer()` is called once per thread; the returned vector is then
/// appended to by that thread alone.
class SpanLog {
 public:
  std::vector<Span>* Buffer();
  /// All spans recorded so far (call after every recording thread ended).
  std::vector<Span> All() const;
  /// Writes one CSV line per span.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Records one span into `out` (no-op when `out` is null): construct at
/// the boundary, `Close()` (or destroy) after the call returns.
class ScopedSpan {
 public:
  ScopedSpan(std::vector<Span>* out, const char* name, const char* parent,
             uint64_t id, uint64_t events)
      : out_(out) {
    if (out_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.id = id;
    span_.events = events;
    span_.start_ns = NowNs();
    cpu0_ = ThreadCpuNs();
  }
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Close() {
    if (out_ == nullptr) return;
    span_.cpu_ns = ThreadCpuNs() - cpu0_;
    span_.end_ns = NowNs();
    out_->push_back(span_);
    out_ = nullptr;
  }

 private:
  std::vector<Span>* out_;
  Span span_;
  uint64_t cpu0_ = 0;
};

/// Sums of the spans named `name`: thread CPU and events carried.
struct SpanTotals {
  uint64_t cpu_ns = 0;
  uint64_t events = 0;
  double CpuPerEvent() const {
    return events == 0 ? 0.0 : static_cast<double>(cpu_ns) / events;
  }
};
SpanTotals SumSpans(const std::vector<Span>& spans, const std::string& name);
/// Wall durations (in `unit_ns`) of the spans named `name`.
std::vector<double> SpanDurations(const std::vector<Span>& spans,
                                  const std::string& name, double unit_ns);

/// Bijective 64-bit mix: Zipf ranks become realistic, scattered key ids.
inline uint64_t KeyOfRank(uint64_t rank) {
  uint64_t z = rank + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace e2ebench

#endif  // E2EBENCH_COMMON_H_
