#include "random/bernoulli.h"

#include "util/math.h"

namespace countlib {

Status BitBernoulli::RateOutOfRange(uint32_t t) {
  return Status::InvalidArgument("BitBernoulli: t must be <= 63, got " +
                                 std::to_string(t));
}

Result<bool> BitBernoulli::SampleDyadic(uint64_t numerator, uint32_t t) {
  if (t > 63) {
    return Status::InvalidArgument("BitBernoulli: t must be <= 63, got " +
                                   std::to_string(t));
  }
  uint64_t denom = uint64_t{1} << t;
  if (numerator > denom) {
    return Status::InvalidArgument("BitBernoulli: numerator exceeds 2^t");
  }
  bits_consumed_ += t;
  if (t == 0) return numerator >= 1;
  uint64_t draw = rng_->NextU64() & (denom - 1);
  return draw < numerator;
}

int BernoulliScratchBits(uint32_t t) {
  if (t == 0) return 0;
  return 1 + CeilLog2(static_cast<uint64_t>(t) + 1);
}

}  // namespace countlib
