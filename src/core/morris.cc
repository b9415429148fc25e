#include "core/morris.h"

#include <algorithm>
#include <cmath>

#include "random/geometric.h"
#include "core/merge.h"
#include "util/logging.h"
#include "util/math.h"
#include "util/mutex.h"

namespace countlib {

namespace {

/// Process-wide cache of level tables, most recently built last. Bounded:
/// a process that sweeps many calibrations keeps only the last few tables
/// alive beyond the counters still holding them.
constexpr size_t kLevelCacheEntries = 8;

struct LevelCache {
  // Leaf: nothing is acquired while it is held, and a miss builds its
  // table outside it.
  Mutex mu LOCK_LEVEL(80);
  std::vector<std::shared_ptr<const MorrisLevels>> tables GUARDED_BY(mu);
};

LevelCache& Cache() {
  static LevelCache cache;
  return cache;
}

}  // namespace

std::shared_ptr<const MorrisLevels> MorrisLevels::For(
    const MorrisParams& params) {
  LevelCache& cache = Cache();
  {
    MutexLock lock(&cache.mu);
    for (const auto& table : cache.tables) {
      if (table->Matches(params)) return table;
    }
  }
  auto built = std::make_shared<const MorrisLevels>(params);
  MutexLock lock(&cache.mu);
  for (const auto& table : cache.tables) {
    if (table->Matches(params)) return table;  // a racing builder won
  }
  if (cache.tables.size() == kLevelCacheEntries) {
    cache.tables.erase(cache.tables.begin());
  }
  cache.tables.push_back(built);
  return built;
}

MorrisLevels::MorrisLevels(const MorrisParams& params)
    : a_(params.a), x_cap_(params.x_cap) {
  const uint64_t levels = std::min(params.x_cap, kMaxTabledLevels - 1) + 1;
  entries_.resize(levels);
  for (uint64_t x = 0; x < levels; ++x) {
    entries_[x].p = ComputeP(x);
    entries_[x].log1m_p = std::log1p(-entries_[x].p);
  }
}

double MorrisLevels::ComputeP(uint64_t x) const {
  return std::exp(-static_cast<double>(x) * std::log1p(a_));
}

double MorrisLevels::ComputeLog1mP(uint64_t x) const {
  return std::log1p(-ComputeP(x));
}

Result<MorrisCounter> MorrisCounter::Make(const MorrisParams& params, uint64_t seed) {
  if (!(params.a > 0.0) || !std::isfinite(params.a)) {
    return Status::InvalidArgument("Morris: a must be finite and > 0");
  }
  if (params.x_cap < 1) {
    return Status::InvalidArgument("Morris: x_cap must be >= 1");
  }
  MorrisCounter counter(params, seed);
  counter.Reset();
  return counter;
}

Result<MorrisCounter> MorrisCounter::FromAccuracy(const Accuracy& acc, uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(MorrisParams params,
                            MorrisFromAccuracy(acc, /*with_prefix=*/false));
  return Make(params, seed);
}

void MorrisCounter::Reset() {
  x_ = 0;
  saturated_ = false;
  p_current_ = 1.0;
}

double MorrisCounter::LevelProbability(uint64_t x) const {
  return levels_->P(x);
}

void MorrisCounter::FastForward(uint64_t n) {
  // Walk the waiting times Z_i ~ Geometric(p_i) of §2.2. Geometric
  // memorylessness makes it valid to abandon a partially-elapsed wait at
  // the end of the batch: the remaining wait is again geometric.
  while (n > 0) {
    if (x_ >= params_.x_cap) {
      saturated_ = true;
      return;
    }
    uint64_t wait =
        SampleGeometricLog1m(&rng_, p_current_, levels_->Log1mP(x_));
    if (wait > n) return;
    n -= wait;
    ++x_;
    p_current_ = levels_->P(x_);
  }
}

double MorrisCounter::Estimate() const {
  return Pow1pm1OverA(params_.a, static_cast<double>(x_));
}

int MorrisCounter::CurrentStateBits() const { return BitWidth(x_); }

void MorrisCounter::SetLevelForMerge(uint64_t x) {
  COUNTLIB_CHECK_LE(x, params_.x_cap);
  x_ = x;
  p_current_ = levels_->P(x_);
}

Status MorrisCounter::SerializeState(BitWriter* out) const {
  out->WriteBits(PackState(), params_.XBits());
  return Status::OK();
}

Status MorrisCounter::DeserializeState(BitReader* in) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t word, in->ReadBits(params_.XBits()));
  return UnpackState(word);
}

Status MorrisCounter::MergeFrom(const Counter& donor) {
  const auto* other = dynamic_cast<const MorrisCounter*>(&donor);
  if (other == nullptr) {
    return Status::InvalidArgument(
        "MorrisCounter::MergeFrom: donor is not a Morris counter");
  }
  return MergeInto(this, *other);
}

}  // namespace countlib
