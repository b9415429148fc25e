#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace countlib {
namespace obs {

uint64_t Counter::ThreadStripe() noexcept {
  static std::atomic<uint64_t> next{0};
  // One fetch_add per thread lifetime; afterwards the stripe index is a
  // plain thread-local read, keeping Add() wait-free.
  // mo: relaxed — round-robin ticket draw; only uniqueness-ish spread
  // matters, not ordering against anything.
  thread_local const uint64_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

uint64_t HistogramSnapshot::BucketUpperBound(int b) {
  if (b <= 0) return 0;
  if (b >= 64) return ~uint64_t{0};
  return (uint64_t{1} << b) - 1;
}

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based: ceil(q * count), at least 1.
  const double exact = q * static_cast<double>(count);
  uint64_t rank = static_cast<uint64_t>(std::ceil(exact));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t cumulative = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= rank) {
      return std::min(BucketUpperBound(b), max);
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // Derive count from the folded buckets instead of keeping a separate
  // count cell: a concurrent Record can never make the snapshot's count
  // disagree with its buckets, so Percentile is always internally
  // consistent. sum/max may trail the buckets by in-flight records.
  // The snapshot's consistency comes from deriving count from the folded
  // buckets, not from load ordering — hence relaxed on every cell.
  for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    snap.buckets[b] = buckets_[b].load(std::memory_order_relaxed);  // mo: see above
    snap.count += snap.buckets[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);  // mo: see above
  snap.max = max_.load(std::memory_order_relaxed);  // mo: see above
  return snap;
}

Registration& Registration::operator=(Registration&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    id_ = other.id_;
    other.registry_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

void Registration::Release() {
  if (registry_ != nullptr) {
    registry_->Unregister(id_);
    registry_ = nullptr;
    id_ = 0;
  }
}

Registry& Registry::Default() {
  // Function-local static: constructed on first use, destroyed after main
  // — instrument owners (pipelines, stores) built inside main are always
  // gone, and deregistered, first.
  static Registry* registry = new Registry();
  return *registry;
}

std::string Registry::SanitizeName(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out[0] >= '0' && out[0] <= '9') out.insert(out.begin(), '_');
  return out;
}

Registration Registry::Insert(Entry entry) {
  MutexLock lock(&mu_);
  entry.id = next_id_++;
  const uint64_t id = entry.id;
  entries_.push_back(std::move(entry));
  return Registration(this, id);
}

Registration Registry::RegisterCounter(const std::string& name,
                                       const Counter* counter) {
  Entry e;
  e.name = SanitizeName(name);
  e.counter = counter;
  return Insert(std::move(e));
}

Registration Registry::RegisterGauge(const std::string& name,
                                     std::function<double()> fn) {
  Entry e;
  e.name = SanitizeName(name);
  e.gauge = std::move(fn);
  return Insert(std::move(e));
}

Registration Registry::RegisterHistogram(const std::string& name,
                                         const Histogram* histogram) {
  Entry e;
  e.name = SanitizeName(name);
  e.histogram = histogram;
  return Insert(std::move(e));
}

void Registry::Unregister(uint64_t id) {
  // Taking mu_ here is the synchronization that makes Registration RAII
  // safe: once Unregister returns, no snapshot can be mid-call into this
  // entry's callback or instrument pointer.
  MutexLock lock(&mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->id == id) {
      entries_.erase(it);
      return;
    }
  }
}

Snapshot Registry::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(&mu_);
  for (const Entry& e : entries_) {
    if (e.counter != nullptr) {
      snap.counters[e.name] += e.counter->Value();
    } else if (e.histogram != nullptr) {
      snap.histograms[e.name].Merge(e.histogram->Snapshot());
    } else if (e.gauge) {
      snap.gauges[e.name] += e.gauge();
    }
  }
  return snap;
}

uint64_t Registry::NumRegistered() const {
  MutexLock lock(&mu_);
  return entries_.size();
}

Snapshot GlobalSnapshot() { return Registry::Default().TakeSnapshot(); }

}  // namespace obs
}  // namespace countlib
