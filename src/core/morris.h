/// \file morris.h
/// \brief The Morris counter, Morris(a) ([Mor78], analyzed in [Fla85] and
/// re-analyzed in §2.2 of the paper).
///
/// The counter stores a single level register X. On each increment, X is
/// bumped with probability (1+a)^{-X}; the estimate is
/// `N-hat = ((1+a)^X - 1)/a`, which is unbiased with variance
/// `a N(N-1)/2` (§1.2). Per the paper's §2.2 analysis, choosing
/// `a = Θ(ε²/log(1/δ))` plus the Morris+ prefix (morris_plus.h) yields the
/// optimal `O(log log N + log(1/ε) + log log(1/δ))` bits.
///
/// Two increment paths are provided:
///  * `Increment()` — one Bernoulli((1+a)^{-X}) trial, the textbook
///    transition;
///  * `IncrementMany(n)` — for n >= 2, exact geometric fast-forward over the
///    waiting times `Z_i ~ Geometric((1+a)^{-i})` (the very random variables
///    the §2.2 proof analyzes), distribution-identical to n single
///    increments. For n = 1 it runs `Increment()`: a wait of one has
///    probability (1+a)^{-X}, so the one Bernoulli draw has the same law and
///    costs a uniform draw and a compare instead of a `log` and a divide.
///    The two paths draw different coins; only the law is shared.
///
/// `Increment`, `IncrementMany`'s n = 1 branch and the word codec are
/// inline and the class is `final`, so the store's apply loop
/// (analytics/counter_store.cc) runs them without a virtual call.

#ifndef COUNTLIB_CORE_MORRIS_H_
#define COUNTLIB_CORE_MORRIS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/counter.h"
#include "core/params.h"
#include "random/rng.h"
#include "util/status.h"

namespace countlib {

/// \brief The per-level constants of one Morris calibration: the
/// acceptance probability p_x = (1+a)^{-x} and log1p(-p_x), the two
/// transcendental terms of every level step. Built once per (a, x_cap) and
/// shared by every counter with that calibration, so a `MorrisCounter`
/// stays O(1) bytes and its unpack → increment → pack cycle computes no
/// `exp` or `log1p` (only the geometric draw's `log(u)` remains). Entries
/// are computed with the very expressions an untabled counter would use,
/// so draws are bit-identical. Levels past `kMaxTabledLevels` (only
/// accuracy-calibrated counters with tiny `a` reach them) are computed on
/// demand.
class MorrisLevels {
 public:
  /// Table size cap: 2^16 levels (1 MiB) covers every bit-budget Morris
  /// counter up to 16 state bits.
  static constexpr uint64_t kMaxTabledLevels = uint64_t{1} << 16;

  /// The shared table for `params` (a, x_cap), from a small process-wide
  /// cache; built on a miss.
  static std::shared_ptr<const MorrisLevels> For(const MorrisParams& params);

  /// (1+a)^{-x}.
  double P(uint64_t x) const {
    return x < entries_.size() ? entries_[x].p : ComputeP(x);
  }
  /// log1p(-(1+a)^{-x}).
  double Log1mP(uint64_t x) const {
    return x < entries_.size() ? entries_[x].log1m_p : ComputeLog1mP(x);
  }

  /// True when the table was built for `params`' (a, x_cap).
  bool Matches(const MorrisParams& params) const {
    return params.a == a_ && params.x_cap == x_cap_;
  }

  explicit MorrisLevels(const MorrisParams& params);

 private:
  struct Entry {
    double p;
    double log1m_p;
  };
  double ComputeP(uint64_t x) const;
  double ComputeLog1mP(uint64_t x) const;

  double a_;
  uint64_t x_cap_;
  std::vector<Entry> entries_;
};

/// \brief Morris(a) approximate counter.
class MorrisCounter final : public Counter {
 public:
  /// Validates `params` (a > 0, x_cap >= 1) and builds a counter.
  static Result<MorrisCounter> Make(const MorrisParams& params, uint64_t seed);

  /// Convenience: derive parameters from an accuracy target (§2.2), without
  /// the Morris+ prefix. Prefer `MorrisPlusCounter` for end use — Appendix A
  /// shows the prefix is necessary for the δ guarantee at small N.
  static Result<MorrisCounter> FromAccuracy(const Accuracy& acc, uint64_t seed);

  void Increment() override {
    if (x_ >= params_.x_cap) {
      saturated_ = true;
      return;
    }
    if (rng_.Bernoulli(p_current_)) {
      ++x_;
      p_current_ = levels_->P(x_);
    }
  }
  void IncrementMany(uint64_t n) override {
    if (n == 1) {
      Increment();
      return;
    }
    FastForward(n);
  }
  double Estimate() const override;
  int StateBits() const override { return params_.XBits(); }
  int CurrentStateBits() const override;
  void Reset() override;
  std::string Name() const override { return params_.ToString(); }
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  uint64_t PackState() const override { return x_; }
  Status UnpackState(uint64_t word) override {
    if (word > params_.x_cap) {
      return Status::InvalidArgument("Morris state exceeds x_cap");
    }
    x_ = word;
    p_current_ = levels_->P(x_);
    saturated_ = false;
    return Status::OK();
  }
  Status MergeFrom(const Counter& donor) override;

  /// The level register X (exposed for experiments and exact-law checks).
  uint64_t x() const { return x_; }

  /// True if an increment ever hit the provisioned cap (estimates are then
  /// saturated; parameters were too small for the stream).
  bool saturated() const { return saturated_; }

  const MorrisParams& params() const { return params_; }

  /// Sets the level directly (used by the merge operation, which owns the
  /// distributional argument for doing so).
  void SetLevelForMerge(uint64_t x);

  /// Acceptance probability at level `x`, (1+a)^{-x}.
  double LevelProbability(uint64_t x) const;

  Rng* rng() { return &rng_; }

 private:
  MorrisCounter(const MorrisParams& params, uint64_t seed)
      : params_(params), rng_(seed), levels_(MorrisLevels::For(params)) {}

  /// `IncrementMany` for n >= 2: the geometric walk over the waits.
  void FastForward(uint64_t n);

  MorrisParams params_;
  Rng rng_;
  uint64_t x_ = 0;
  bool saturated_ = false;
  // Cached (1+a)^{-x_}; reloaded from `levels_` on every level change, so
  // no multiplicative drift accumulates across levels.
  double p_current_ = 1.0;
  std::shared_ptr<const MorrisLevels> levels_;
};

}  // namespace countlib

#endif  // COUNTLIB_CORE_MORRIS_H_
