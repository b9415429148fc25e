/// \file bernoulli.h
/// \brief Bernoulli sampling primitives, including the bit-frugal
/// Bernoulli(2^-t) sampler prescribed by Remark 2.2 of the paper.
///
/// Remark 2.2 observes that Algorithm 1 only ever needs acceptance
/// probabilities that are inverse powers of two (α is rounded *up* to the
/// nearest 2^-t, which the Chernoff argument tolerates), and that
/// Bernoulli(2^-t) can be realized by flipping `t` fair coins and ANDing
/// them — requiring only `1 + ceil(log2(t+1))` bits of *working* state
/// (the AND accumulator and the flip counter). `BitBernoulli` implements
/// exactly that scheme and accounts for random bits consumed, so the
/// "program state" ledger in `core/` can report honest footprints.

#ifndef COUNTLIB_RANDOM_BERNOULLI_H_
#define COUNTLIB_RANDOM_BERNOULLI_H_

#include <cstdint>

#include "random/rng.h"
#include "util/status.h"

namespace countlib {

/// \brief Samples Bernoulli(2^-t) events from fair coin flips.
class BitBernoulli {
 public:
  /// `rng` must outlive this object.
  explicit BitBernoulli(Rng* rng) : rng_(rng) {}

  /// Draws one Bernoulli(2^-t) sample, `0 <= t <= 63`.
  ///
  /// Faithful to Remark 2.2: conceptually flips `t` fair coins one at a
  /// time. Implemented by drawing ceil(t/64) words and testing the low `t`
  /// bits are all set, which is distribution-identical; `bits_consumed()`
  /// still advances by exactly `t` so space/entropy ledgers match the paper
  /// model. Early-exits on the first zero coin like the sequential scheme.
  /// Inline: it is the sampling counter's per-increment coin.
  Result<bool> SampleInversePowerOfTwo(uint32_t t) {
    if (t > 63) return RateOutOfRange(t);
    bits_consumed_ += t;
    if (t == 0) return true;
    const uint64_t mask = (uint64_t{1} << t) - 1;
    return (rng_->NextU64() & mask) == mask;
  }

  /// Draws one Bernoulli(numerator / 2^t) sample by comparing `t` fresh
  /// coin bits against `numerator` (used by merge, which needs ratios of
  /// powers of two). Requires `numerator <= 2^t` and `t <= 63`.
  Result<bool> SampleDyadic(uint64_t numerator, uint32_t t);

  /// Fair-coin bits consumed so far (the entropy cost ledger).
  uint64_t bits_consumed() const { return bits_consumed_; }

  /// Resets the entropy ledger.
  void ResetLedger() { bits_consumed_ = 0; }

 private:
  /// The `kInvalidArgument` for t > 63 (out of line: the cold path).
  static Status RateOutOfRange(uint32_t t);

  Rng* rng_;
  uint64_t bits_consumed_ = 0;
};

/// \brief Working-state cost, in bits, of sampling Bernoulli(2^-t) via the
/// Remark 2.2 coin-ANDing scheme: 1 bit for the AND + ceil(log2(t+1)) for
/// the flip counter. Returns 0 for t == 0 (no sampling needed).
int BernoulliScratchBits(uint32_t t);

}  // namespace countlib

#endif  // COUNTLIB_RANDOM_BERNOULLI_H_
