/// \file sampling_counter.h
/// \brief The simplified Algorithm-1 variant used in the paper's Figure 1
/// experiment ("similar to the algorithm of [Csu10]").
///
/// State is a pair (Y, t): increments are accepted with probability 2^{-t}
/// into Y; when Y reaches the budget B both the rate and Y are halved
/// (t += 1, Y >>= 1). The estimate is `Y * 2^t`.
///
/// This drops Algorithm 1's per-epoch (1+ε) geometry and η_k schedule but
/// keeps its essence — a subsampled auxiliary counter with geometrically
/// decaying rate — and matches the space profile
/// `log B + log log N = O(log(1/ε) + log log(1/δ) + log log N)` bits.
///
/// `V = Y * 2^t` changes by +2^t with probability 2^{-t} per increment and
/// is preserved exactly by halving (B even), so `V - N` is a martingale:
/// the estimator is exactly unbiased. The test suite verifies both the
/// unbiasedness and the concentration empirically.

#ifndef COUNTLIB_CORE_SAMPLING_COUNTER_H_
#define COUNTLIB_CORE_SAMPLING_COUNTER_H_

#include <cstdint>
#include <string>

#include "core/counter.h"
#include "core/params.h"
#include "random/bernoulli.h"
#include "random/rng.h"
#include "util/status.h"

namespace countlib {

/// \brief Subsampling counter with rate halving (simplified Nelson-Yu).
class SamplingCounter : public Counter {
 public:
  /// Validates `params` (budget a power of two >= 4, t_cap in [1, 63],
  /// state at most 64 bits).
  static Result<SamplingCounter> Make(const SamplingCounterParams& params,
                                      uint64_t seed);

  /// Accuracy-driven parameterization (B = Θ(log(1/δ)/ε²)).
  static Result<SamplingCounter> FromAccuracy(const Accuracy& acc, uint64_t seed);

  void Increment() override;
  void IncrementMany(uint64_t n) override;
  double Estimate() const override;
  int StateBits() const override { return params_.TotalBits(); }
  int CurrentStateBits() const override;
  void Reset() override;
  std::string Name() const override { return params_.ToString(); }
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  /// Y in the low `YBits()`, t above it (the bit-stream field order).
  uint64_t PackState() const override {
    return y_ | (static_cast<uint64_t>(t_) << params_.YBits());
  }
  Status UnpackState(uint64_t word) override;
  Status MergeFrom(const Counter& donor) override;

  uint64_t y() const { return y_; }
  uint32_t t() const { return t_; }
  /// True once t would need to exceed t_cap (the counter stops halving and
  /// Y saturates at B-1; estimates are then floored).
  bool saturated() const { return saturated_; }

  const SamplingCounterParams& params() const { return params_; }

  /// Feeds a survivor sampled at rate 2^{-source_t} elsewhere (merge
  /// support; requires source_t <= t()).
  Status AddSubsampledSurvivor(uint32_t source_t);

  /// The coin stream (merge support: a merge keeps the destination's).
  Rng* rng() { return &rng_; }

 private:
  SamplingCounter(const SamplingCounterParams& params, uint64_t seed)
      : params_(params), rng_(seed) {}

  void AcceptSurvivor();

  SamplingCounterParams params_;
  Rng rng_;
  uint64_t y_ = 0;
  uint32_t t_ = 0;
  bool saturated_ = false;
};

}  // namespace countlib

#endif  // COUNTLIB_CORE_SAMPLING_COUNTER_H_
