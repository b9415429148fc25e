#include "core/sampling_counter.h"

#include <cmath>

#include "random/geometric.h"
#include "core/merge.h"
#include "util/math.h"

namespace countlib {

Result<SamplingCounter> SamplingCounter::Make(const SamplingCounterParams& params,
                                              uint64_t seed) {
  if (params.budget < 4 || (params.budget & (params.budget - 1)) != 0) {
    return Status::InvalidArgument("SamplingCounter: budget must be a power of two >= 4");
  }
  if (params.t_cap < 1 || params.t_cap > 63) {
    return Status::InvalidArgument("SamplingCounter: t_cap must be in [1, 63]");
  }
  if (params.TotalBits() > 64) {
    return Status::InvalidArgument("SamplingCounter: state wider than 64 bits");
  }
  SamplingCounter counter(params, seed);
  counter.Reset();
  return counter;
}

Result<SamplingCounter> SamplingCounter::FromAccuracy(const Accuracy& acc,
                                                      uint64_t seed) {
  COUNTLIB_ASSIGN_OR_RETURN(SamplingCounterParams params, SamplingFromAccuracy(acc));
  return Make(params, seed);
}

void SamplingCounter::Reset() {
  y_ = 0;
  t_ = 0;
  saturated_ = false;
}

void SamplingCounter::FastForward(uint64_t n) {
  while (n > 0) {
    if (t_ == 0) {
      uint64_t room = params_.budget - y_;  // survivors until the next fold
      uint64_t take = std::min(n, room);
      y_ += take - 1;
      n -= take;
      AcceptSurvivor();
      continue;
    }
    const double p = std::ldexp(1.0, -static_cast<int>(t_));
    uint64_t wait = SampleGeometric(&rng_, p);
    if (wait > n) return;
    n -= wait;
    AcceptSurvivor();
  }
}

double SamplingCounter::Estimate() const {
  return std::ldexp(static_cast<double>(y_), static_cast<int>(t_));
}

int SamplingCounter::CurrentStateBits() const {
  return BitWidth(y_) + BitWidth(t_);
}

Status SamplingCounter::AddSubsampledSurvivor(uint32_t source_t) {
  if (source_t > t_) {
    return Status::InvalidArgument(
        "merge order violation: source rate below destination rate");
  }
  BitBernoulli coin(&rng_);
  COUNTLIB_ASSIGN_OR_RETURN(bool accept,
                            coin.SampleInversePowerOfTwo(t_ - source_t));
  if (accept) AcceptSurvivor();
  return Status::OK();
}

Status SamplingCounter::SerializeState(BitWriter* out) const {
  out->WriteBits(PackState(), params_.TotalBits());
  return Status::OK();
}

Status SamplingCounter::DeserializeState(BitReader* in) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t word, in->ReadBits(params_.TotalBits()));
  return UnpackState(word);
}

Status SamplingCounter::MergeFrom(const Counter& donor) {
  const auto* other = dynamic_cast<const SamplingCounter*>(&donor);
  if (other == nullptr) {
    return Status::InvalidArgument(
        "SamplingCounter::MergeFrom: donor is not a sampling counter");
  }
  return MergeInto(this, *other);
}

}  // namespace countlib
