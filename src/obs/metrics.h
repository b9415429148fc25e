/// \file metrics.h
/// \brief The telemetry core of countlib: three instrument kinds and the
/// process-wide registry that exports them — the operational-visibility
/// layer the §1 "production analytics at scale" story needs beside the
/// ingest path itself.
///
/// Instrument kinds, each picked for its hot-path cost profile:
///
///  - `Counter` — a monotonic event count, **wait-free on the write side**:
///    the cell is striped across cache-line-padded relaxed atomics and each
///    thread sticks to one stripe (round-robin assignment on first use), so
///    concurrent `Add` calls from producers and workers never contend on
///    one cache line. `Value()` folds the stripes at read time; it is exact
///    whenever the writers are quiescent (e.g. after a pipeline `Drain`)
///    and monotonically fresh otherwise. No increment is ever lost.
///  - Gauges — instantaneous readings (queue depth, worker count), modeled
///    as **sampled callbacks**: the owner registers a `double()` function
///    and the registry calls it at snapshot time. Nothing is paid until
///    somebody looks.
///  - `Histogram` — fixed-bucket log₂ latency distribution: 65
///    preallocated bucket cells (bucket i holds values whose bit width is
///    i, i.e. [2^(i-1), 2^i)), lock-free relaxed `Record`, and mergeable
///    `HistogramSnapshot`s that answer p50/p90/p99/max. Recording is a
///    handful of relaxed RMWs and never allocates — safe on the ingest
///    drain path.
///
/// The `Registry` is a directory, not an owner: subsystems own their
/// instruments (a pipeline owns its histograms, a store owns its counters)
/// and register them under stable names, receiving RAII `Registration`
/// handles that deregister on destruction — so a destroyed pipeline cannot
/// leave a dangling gauge callback behind. Two registrations may share a
/// name (two pipelines in one process); `TakeSnapshot` aggregates them
/// (counters and gauges sum, histograms merge), which matches what a
/// per-process Prometheus scrape should see.
///
/// Naming convention (see obs/README.md): `countlib_<subsystem>_<what>`,
/// with `_total` for monotonic counts and a unit suffix (`_ns`) for
/// histograms, e.g. `countlib_pipeline_events_submitted_total`,
/// `countlib_pipeline_submit_apply_latency_ns`, `countlib_store_state_bits`.
///
/// Thread-safety: every `Counter`/`Histogram` method is safe from any
/// thread. Registration/deregistration and snapshots serialize on one
/// registry mutex — they are cold-path operations. Gauge callbacks run
/// under that mutex: they must be cheap and must not call back into the
/// registry.

#ifndef COUNTLIB_OBS_METRICS_H_
#define COUNTLIB_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace countlib {
namespace obs {

/// \brief Wait-free monotonic counter, striped to defeat write contention.
///
/// Each writing thread is assigned one of `kStripes` cache-line-padded
/// cells on its first `Add` and keeps it for life, so the steady-state
/// write is a single uncontended relaxed `fetch_add`. Reads fold all
/// stripes: exact when writers are quiescent, a live lower-ish bound
/// otherwise (individual adds are never lost, only possibly not yet
/// observed).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Adds `n`. Wait-free, allocation-free, relaxed ordering.
  // HOTPATH: called from every submit and drain — no allocation permitted.
  void Add(uint64_t n = 1) noexcept {
    // mo: relaxed — monotonic count cell; visibility rides the reader's
    // own happens-before edges (joins, drains), not this RMW.
    cells_[ThreadStripe()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Folds the stripes. Exact once the writers are quiescent (a thread
  /// join or any other happens-before edge publishes its stripe).
  uint64_t Value() const noexcept {
    uint64_t total = 0;
    // mo: relaxed — the fold is exact under quiescence and a fresh-ish
    // lower bound otherwise; ordering would not improve either property.
    for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  /// Number of write stripes (fixed; exposed for tests and sizing docs).
  static constexpr uint64_t kStripes = 16;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };

  /// Round-robin stripe assignment: cheaper and better-spread than hashing
  /// the thread id, and stable for the thread's lifetime.
  static uint64_t ThreadStripe() noexcept;

  Cell cells_[kStripes];
};

/// \brief Point-in-time view of a `Histogram`, safe to copy, merge, and
/// query after the histogram (or its owner) is gone.
struct HistogramSnapshot {
  /// One cell per log₂ bucket; bucket i counts values of bit width i
  /// (bucket 0: the value 0; bucket i>0: [2^(i-1), 2^i)).
  static constexpr int kBuckets = 65;

  uint64_t buckets[kBuckets] = {0};
  uint64_t count = 0;  ///< total recorded values (== sum of buckets)
  uint64_t sum = 0;    ///< sum of recorded values
  uint64_t max = 0;    ///< largest recorded value

  /// Upper bound (inclusive) of bucket `b`: 0 for b==0, else 2^b - 1.
  static uint64_t BucketUpperBound(int b);

  /// The smallest bucket upper bound covering quantile `q` in [0, 1]
  /// (clamped), further clamped to `max` so p100 never exceeds the
  /// largest observation. Returns 0 for an empty snapshot.
  uint64_t Percentile(double q) const;

  /// Mean of the recorded values (0 for an empty snapshot).
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Folds `other` in bucket-wise; `max` takes the larger. Merging N
  /// per-shard snapshots yields exactly the distribution of the union —
  /// the same mergeability discipline as the paper's counters.
  void Merge(const HistogramSnapshot& other);
};

/// \brief Fixed-bucket log₂ histogram with lock-free, allocation-free
/// recording — the latency instrument for the ingest hot path.
///
/// 65 preallocated bucket cells; `Record` is 3 relaxed `fetch_add`s plus a
/// relaxed CAS max update. A concurrent `Snapshot` is internally
/// consistent on `buckets`/`count` (count is derived from the folded
/// buckets) and exact once recorders are quiescent.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one value. Lock-free, allocation-free.
  // HOTPATH: the drain loop's latency instrument — no allocation permitted.
  void Record(uint64_t value) noexcept {
    // mo: relaxed ×2 — independent stat cells; snapshots tolerate
    // in-flight records (count is derived from the folded buckets).
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // mo: relaxed — running-max CAS loop; only the final value matters
    // and the loop re-reads on failure, so no ordering is needed.
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Copies the current state out. See class comment for the concurrency
  /// contract.
  HistogramSnapshot Snapshot() const;

  /// The bucket index `value` lands in (its bit width; 0 for 0).
  static int BucketFor(uint64_t value) noexcept {
    if (value == 0) return 0;
#if defined(__GNUC__) || defined(__clang__)
    return 64 - __builtin_clzll(value);
#else
    int w = 0;
    while (value != 0) {
      ++w;
      value >>= 1;
    }
    return w;
#endif
  }

 private:
  std::atomic<uint64_t> buckets_[HistogramSnapshot::kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// \brief Aggregated point-in-time view of every registered instrument,
/// the one export surface: serialize it with obs/export.h.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

class Registry;

/// \brief RAII handle for one registered instrument; deregisters on
/// destruction. Movable, not copyable.
///
/// `[[nodiscard]]`: ignoring the returned handle destroys it immediately,
/// which silently deregisters the instrument in the same statement that
/// registered it.
class [[nodiscard]] Registration {
 public:
  Registration() = default;
  Registration(Registration&& other) noexcept { *this = std::move(other); }
  Registration& operator=(Registration&& other) noexcept;
  ~Registration() { Release(); }

  Registration(const Registration&) = delete;
  Registration& operator=(const Registration&) = delete;

  /// Deregisters now (idempotent).
  void Release();

 private:
  friend class Registry;
  Registration(Registry* registry, uint64_t id)
      : registry_(registry), id_(id) {}

  Registry* registry_ = nullptr;
  uint64_t id_ = 0;
};

/// \brief Process-wide instrument directory. Subsystems register
/// instruments they own; snapshots aggregate same-named registrations.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The default process-wide registry (what `GlobalSnapshot` and the
  /// pipeline/store/net instrumentation use).
  static Registry& Default();

  /// Registers `counter` under `name`. The counter must outlive the
  /// returned handle. Invalid metric names (not
  /// `[a-zA-Z_:][a-zA-Z0-9_:]*`) are sanitized: every illegal character
  /// becomes '_'.
  Registration RegisterCounter(const std::string& name,
                               const Counter* counter);

  /// Registers a sampled-callback gauge. `fn` runs under the registry
  /// mutex at snapshot time: keep it cheap (atomic loads), never
  /// call back into the registry, and keep whatever it reads alive until
  /// the handle is released.
  Registration RegisterGauge(const std::string& name,
                             std::function<double()> fn);

  /// Registers `histogram` under `name`; same lifetime contract as
  /// counters.
  Registration RegisterHistogram(const std::string& name,
                                 const Histogram* histogram);

  /// Aggregated view of everything currently registered: same-named
  /// counters and gauges sum, same-named histograms merge. Gauge
  /// callbacks run inline.
  Snapshot TakeSnapshot() const;

  /// Number of live registrations across all kinds (for tests).
  uint64_t NumRegistered() const;

  /// Replaces characters outside `[a-zA-Z0-9_:]` with '_' (and prefixes
  /// '_' if the first character is a digit) — the exported name is always
  /// a valid Prometheus metric name.
  static std::string SanitizeName(const std::string& name);

 private:
  friend class Registration;

  struct Entry {
    uint64_t id = 0;
    std::string name;
    const Counter* counter = nullptr;
    const Histogram* histogram = nullptr;
    std::function<double()> gauge;
  };

  void Unregister(uint64_t id);
  Registration Insert(Entry entry);

  mutable Mutex mu_ LOCK_LEVEL(60);
  std::vector<Entry> entries_ GUARDED_BY(mu_);  // erased on deregistration
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

/// Convenience: a snapshot of `Registry::Default()`.
Snapshot GlobalSnapshot();

}  // namespace obs
}  // namespace countlib

#endif  // COUNTLIB_OBS_METRICS_H_
