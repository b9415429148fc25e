/// \file nelson_yu.h
/// \brief Algorithm 1 of the paper — the new optimal approximate counter.
///
/// The counter runs a sequence of promise decision problems (§1.2): in
/// epoch k it subsamples increments into an auxiliary register Y at rate
/// α_k = 2^{-t_k}, and advances the level register X when Y crosses
/// floor(α_k T_k), where T_k = ceil((1+ε)^X). On an epoch change Y is
/// rescaled by α_{k+1}/α_k (a right shift, since rates are powers of two).
///
/// Exactly as Remark 2.2 prescribes, the *stored program state* is only the
/// integer triple (X, Y, t):
///  * α is kept as 2^{-t} (rounded up from line 10's value, which the
///    Chernoff argument tolerates), so only t is stored;
///  * T and η are never materialized — they are recomputed into scratch
///    registers from X and the program constants (ε, Δ, C);
///  * δ enters as the integer exponent Δ with δ = 2^{-Δ};
///  * Bernoulli(2^{-t}) draws use the fair-coin ANDing scheme
///    (random/bernoulli.h).
///
/// Space: O(log log N + log(1/ε) + log log(1/δ)) bits with the
/// doubly-exponential tail of Theorem 2.3. Correctness: Theorem 2.1.
/// The counter is fully mergeable (Remark 2.4; see core/merge.h).

#ifndef COUNTLIB_CORE_NELSON_YU_H_
#define COUNTLIB_CORE_NELSON_YU_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/params.h"
#include "random/bernoulli.h"
#include "random/rng.h"
#include "util/status.h"

namespace countlib {

/// \brief The Nelson-Yu approximate counter (Algorithm 1).
class NelsonYuCounter : public Counter {
 public:
  /// Deterministic per-epoch schedule entry: the subsampling exponent t
  /// (α = 2^{-t}) and the Y-threshold floor(α T) of the epoch at level x.
  struct EpochSchedule {
    uint32_t t = 0;
    uint64_t threshold = 0;
  };

  /// Validates `params` and builds a counter.
  static Result<NelsonYuCounter> Make(const NelsonYuParams& params, uint64_t seed);

  /// Theorem 2.1 parameterization for an accuracy target.
  static Result<NelsonYuCounter> FromAccuracy(const Accuracy& acc, uint64_t seed);

  void Increment() override;
  void IncrementMany(uint64_t n) override;
  double Estimate() const override;
  int StateBits() const override { return params_.TotalBits(); }
  int CurrentStateBits() const override;
  void Reset() override;
  std::string Name() const override { return params_.ToString(); }
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  Status MergeFrom(const Counter& donor) override;

  /// Level register (== X0 + current epoch index).
  uint64_t x() const { return x_; }
  /// Subsample register.
  uint64_t y() const { return y_; }
  /// Subsampling exponent (α = 2^{-t}).
  uint32_t t() const { return t_; }
  /// The starting level X0 (epoch 0).
  uint64_t X0() const { return x0_; }
  /// True if the level cap was hit (estimates saturate).
  bool saturated() const { return saturated_; }

  const NelsonYuParams& params() const { return params_; }

  /// The deterministic schedule of the epoch at level `x` (>= X0). The
  /// schedule depends only on the program constants, never on the random
  /// stream — this is what makes the counter mergeable. O(x - X0) time.
  EpochSchedule ScheduleAt(uint64_t x) const;

  /// The value of Y at the *start* of the epoch at level `x` (deterministic
  /// for x > X0; 0 for x == X0).
  uint64_t YStartAt(uint64_t x) const;

  /// One epoch's subsampling exponent and the number of increments that
  /// survived subsampling during it. For completed epochs the survivor
  /// count is deterministic (threshold + 1 minus the rescaled entry value);
  /// only the final, in-progress epoch depends on the random stream — which
  /// is why (X, Y, t) is a sufficient statistic for merging (Remark 2.4).
  struct EpochSurvivors {
    uint32_t t = 0;
    uint64_t count = 0;
  };

  /// Survivor counts for every epoch from X0 up to the current level, in
  /// epoch order (rates non-increasing). O(x - X0) time.
  std::vector<EpochSurvivors> SurvivorsByEpoch() const;

  /// Feeds one increment that already survived subsampling at rate
  /// 2^{-source_t} in another counter: it survives here with probability
  /// α_current / 2^{-source_t} = 2^{source_t - t}. Requires
  /// `source_t <= t()` (guaranteed when merging the lower counter into the
  /// higher one in epoch order). Implements Remark 2.4; used by merge.h.
  Status AddSubsampledSurvivor(uint32_t source_t);

  /// Total fair-coin bits consumed by Bernoulli sampling so far.
  uint64_t random_bits_consumed() const { return coin_bits_; }

  /// The coin stream (merge support: a merge keeps the destination's).
  Rng* rng() { return &rng_; }

 private:
  NelsonYuCounter(const NelsonYuParams& params, uint64_t seed)
      : params_(params), rng_(seed), x0_(params.X0()) {}

  /// One epoch-schedule step: the (t, threshold) for level `x` given the
  /// previous epoch's exponent (t is clamped monotone; see merge.h notes).
  EpochSchedule NextSchedule(uint64_t x, uint32_t prev_t) const;

  /// Registers a survivor in Y and advances the epoch on crossing.
  void AcceptSurvivor();

  /// Advances X by one epoch, rescaling Y.
  void AdvanceEpoch();

  NelsonYuParams params_;
  Rng rng_;
  uint64_t coin_bits_ = 0;  // fair-coin bits consumed (entropy ledger)
  uint64_t x0_;

  uint64_t x_ = 0;
  uint64_t y_ = 0;
  uint32_t t_ = 0;
  uint64_t threshold_ = 0;  // derived: floor(2^{-t} * T(x)); cached
  bool saturated_ = false;
};

}  // namespace countlib

#endif  // COUNTLIB_CORE_NELSON_YU_H_
