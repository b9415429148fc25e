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
///
/// `IncrementMany(n)` fast-forwards by geometric waits once t > 0; for n = 1
/// it runs `Increment()`'s one Bernoulli(2^{-t}) draw, the same law from
/// different coins. That branch, `Increment` and the word codec are inline
/// and the class is `final`, so the store's apply loop
/// (analytics/counter_store.cc) runs them without a virtual call.

#ifndef COUNTLIB_CORE_SAMPLING_COUNTER_H_
#define COUNTLIB_CORE_SAMPLING_COUNTER_H_

#include <cstdint>
#include <string>

#include "core/counter.h"
#include "core/params.h"
#include "random/bernoulli.h"
#include "random/rng.h"
#include "util/logging.h"
#include "util/status.h"

namespace countlib {

/// \brief Subsampling counter with rate halving (simplified Nelson-Yu).
class SamplingCounter final : public Counter {
 public:
  /// Validates `params` (budget a power of two >= 4, t_cap in [1, 63],
  /// state at most 64 bits).
  static Result<SamplingCounter> Make(const SamplingCounterParams& params,
                                      uint64_t seed);

  /// Accuracy-driven parameterization (B = Θ(log(1/δ)/ε²)).
  static Result<SamplingCounter> FromAccuracy(const Accuracy& acc, uint64_t seed);

  void Increment() override {
    BitBernoulli coin(&rng_);
    Result<bool> accept = coin.SampleInversePowerOfTwo(t_);
    COUNTLIB_CHECK_OK(accept.status());
    if (*accept) AcceptSurvivor();
  }
  void IncrementMany(uint64_t n) override {
    if (n == 1) {
      Increment();
      return;
    }
    FastForward(n);
  }
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
  Status UnpackState(uint64_t word) override {
    const int y_bits = params_.YBits();
    const uint64_t y = word & ((uint64_t{1} << y_bits) - 1);
    const uint64_t t = word >> y_bits;
    if (y >= params_.budget) {
      return Status::InvalidArgument("SamplingCounter state: y out of range");
    }
    if (t > params_.t_cap) {
      return Status::InvalidArgument("SamplingCounter state: t out of range");
    }
    y_ = y;
    t_ = static_cast<uint32_t>(t);
    saturated_ = false;
    return Status::OK();
  }
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

  /// `IncrementMany` for n >= 2: geometric waits between survivors.
  void FastForward(uint64_t n);

  /// Adds one survivor to Y, halving (Y, rate) when Y reaches the budget.
  void AcceptSurvivor() {
    ++y_;
    if (y_ >= params_.budget) {
      if (t_ >= params_.t_cap) {
        // Out of rate headroom: hold Y at B-1 (saturation); parameters were
        // provisioned so this has negligible probability below n_max.
        y_ = params_.budget - 1;
        saturated_ = true;
        return;
      }
      y_ >>= 1;
      ++t_;
    }
  }

  SamplingCounterParams params_;
  Rng rng_;
  uint64_t y_ = 0;
  uint32_t t_ = 0;
  bool saturated_ = false;
};

}  // namespace countlib

#endif  // COUNTLIB_CORE_SAMPLING_COUNTER_H_
