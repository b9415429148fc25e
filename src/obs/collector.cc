#include "obs/collector.h"

#include <algorithm>
#include <utility>

#include "obs/timer.h"

namespace countlib {
namespace obs {

Result<std::unique_ptr<MetricsCollector>> MetricsCollector::Make(
    Registry* registry, const CollectorOptions& options) {
  using std::chrono::microseconds;
  if (options.tick_interval < microseconds(10) ||
      options.tick_interval > microseconds(1000000)) {
    return Status::InvalidArgument(
        "MetricsCollector: tick_interval in [10us, 1s]");
  }
  if (options.sample_interval < options.tick_interval ||
      options.sample_interval > std::chrono::milliseconds(60000)) {
    return Status::InvalidArgument(
        "MetricsCollector: sample_interval in [tick_interval, 60s]");
  }
  if (options.series_capacity < 2 ||
      options.series_capacity > (uint64_t{1} << 20)) {
    return Status::InvalidArgument(
        "MetricsCollector: series_capacity in [2, 2^20]");
  }
  if (registry == nullptr) registry = &Registry::Default();
  return std::unique_ptr<MetricsCollector>(
      new MetricsCollector(registry, options));
}

MetricsCollector::MetricsCollector(Registry* registry,
                                   const CollectorOptions& options)
    : registry_(registry), options_(options) {
  // Seed the coarse clock before the thread exists so an event stamped
  // between construction and the first tick already carries a real time.
  CoarseClock::Set(CoarseClock::RealNowNanos());
  provider_registration_ =
      registry_->RegisterSeriesProvider([this] { return Series(); });
  thread_ = std::thread([this] { Loop(); });
}

MetricsCollector::~MetricsCollector() { Stop(); }

void MetricsCollector::Stop() {
  // Deregister the series provider first: after Release returns, no
  // snapshot can be mid-call into Series(), and the thread join below
  // makes the ring buffers quiescent.
  // mo: acq_rel — the exchange both claims the single Stop (acquire the
  // loser's view) and publishes the request to the loop's acquire load.
  const bool was_running = !stop_.exchange(true, std::memory_order_acq_rel);
  if (!was_running) return;
  if (thread_.joinable()) thread_.join();
  provider_registration_.Release();
  // Declare the ticker stopped: hot paths reading 0 skip latency
  // recording instead of computing garbage deltas against a frozen tick.
  CoarseClock::Set(0);
}

void MetricsCollector::Loop() {
  const uint64_t sample_every_ns =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                options_.sample_interval)
                                .count());
  uint64_t last_sample_ns = CoarseClock::RealNowNanos();
  // mo: acquire — pairs with Stop's acq_rel exchange.
  while (!stop_.load(std::memory_order_acquire)) {
    // nanosleep (not a CV wait) keeps the per-tick cost to one syscall;
    // Stop latency is bounded by one tick_interval.
    std::this_thread::sleep_for(options_.tick_interval);
    const uint64_t now = CoarseClock::RealNowNanos();
    CoarseClock::Set(now);
    // mo: relaxed — progress counter.
    ticks_.fetch_add(1, std::memory_order_relaxed);
    if (now - last_sample_ns >= sample_every_ns) {
      last_sample_ns = now;
      SampleOnce(now);
    }
  }
}

void MetricsCollector::SampleOnce(uint64_t now_ns) {
  // Sample under the registry mutex (inside SampleGauges), then write the
  // rings under series_mu_ — never both at once from this side, so the
  // provider path (registry mu_ -> series_mu_ in TakeSnapshot) cannot
  // deadlock against it.
  const auto samples = registry_->SampleGauges();
  MutexLock lock(&series_mu_);
  for (const auto& [name, value] : samples) {
    auto it = series_.find(name);
    if (it == series_.end()) {
      it = series_.emplace(name, TimeSeries(options_.series_capacity)).first;
    }
    TimeSeries& ts = it->second;
    ts.points[ts.next % ts.points.size()] = SeriesPoint{now_ns, value};
    ++ts.next;
    ts.count = std::min<uint64_t>(ts.count + 1, ts.points.size());
  }
  // mo: relaxed — progress counter.
  samples_.fetch_add(1, std::memory_order_relaxed);
}

std::map<std::string, std::vector<SeriesPoint>> MetricsCollector::Series()
    const {
  std::map<std::string, std::vector<SeriesPoint>> out;
  MutexLock lock(&series_mu_);
  for (const auto& [name, ts] : series_) {
    std::vector<SeriesPoint>& dst = out[name];
    dst.reserve(ts.count);
    // Oldest first: the ring's logical start is next - count.
    const uint64_t cap = ts.points.size();
    const uint64_t start = ts.next - ts.count;
    for (uint64_t i = 0; i < ts.count; ++i) {
      dst.push_back(ts.points[(start + i) % cap]);
    }
  }
  return out;
}

}  // namespace obs
}  // namespace countlib
