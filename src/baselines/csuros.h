/// \file csuros.h
/// \brief Csűrös' floating-point counter [Csu10] — the prior-art algorithm
/// the paper says its Figure-1 "simplified algorithm" resembles.
///
/// State is a single integer s, read as a d-bit mantissa m = s mod 2^d and
/// an exponent e = floor(s / 2^d). Each increment bumps s with probability
/// 2^{-e}; the estimate is `(2^d + m) 2^e - 2^d`, which is exactly unbiased
/// (Csűrös 2010, Theorem 1 — also re-verified empirically in our tests).
///
/// Like the sampling counter it spends log(1/ε)-type bits on the mantissa
/// and log log N on the exponent; unlike Algorithm 1 it has no δ schedule.
///
/// `IncrementMany(n)` fast-forwards by geometric waits once e > 0; for n = 1
/// it runs `Increment()`'s one Bernoulli(2^{-e}) draw, the same law from
/// different coins. That branch, `Increment` and the word codec are inline
/// and the class is `final`, so the store's apply loop
/// (analytics/counter_store.cc) runs them without a virtual call.

#ifndef COUNTLIB_BASELINES_CSUROS_H_
#define COUNTLIB_BASELINES_CSUROS_H_

#include <cmath>
#include <cstdint>
#include <string>

#include "core/counter.h"
#include "core/params.h"
#include "random/rng.h"
#include "util/status.h"

namespace countlib {

/// \brief Parameters of the floating-point counter.
struct CsurosParams {
  /// Mantissa width d (bits); acceptance probability is 2^{-e}.
  uint32_t mantissa_bits = 8;
  /// Cap on the exponent e (provisioning).
  uint32_t exponent_cap = 31;

  /// Total provisioned bits for s in [0, (exponent_cap+1) 2^d).
  int TotalBits() const;

  std::string ToString() const;
};

/// \brief The [Csu10] floating-point counter.
class CsurosCounter final : public Counter {
 public:
  static Result<CsurosCounter> Make(const CsurosParams& params, uint64_t seed);

  /// Derives the mantissa width from an accuracy target: the estimator's
  /// relative variance is ~ 1/2^{d+1}, so Chebyshev needs
  /// d = ceil(log2(1/(2 ε² δ))).
  static Result<CsurosCounter> FromAccuracy(const Accuracy& acc, uint64_t seed);

  void Increment() override {
    if (exponent() >= params_.exponent_cap &&
        mantissa() == (uint64_t{1} << params_.mantissa_bits) - 1) {
      saturated_ = true;
      return;
    }
    const double p = std::ldexp(1.0, -static_cast<int>(exponent()));
    if (rng_.Bernoulli(p)) ++s_;
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
  void Reset() override { s_ = 0; saturated_ = false; }
  std::string Name() const override { return params_.ToString(); }
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  uint64_t PackState() const override { return s_; }
  Status UnpackState(uint64_t word) override {
    const uint64_t s_max = (static_cast<uint64_t>(params_.exponent_cap) + 1)
                           << params_.mantissa_bits;
    if (word >= s_max) return Status::InvalidArgument("Csuros state out of range");
    s_ = word;
    saturated_ = false;
    return Status::OK();
  }

  uint64_t s() const { return s_; }
  uint32_t exponent() const {
    return static_cast<uint32_t>(s_ >> params_.mantissa_bits);
  }
  uint64_t mantissa() const {
    return s_ & ((uint64_t{1} << params_.mantissa_bits) - 1);
  }
  bool saturated() const { return saturated_; }

  const CsurosParams& params() const { return params_; }

 private:
  CsurosCounter(const CsurosParams& params, uint64_t seed)
      : params_(params), rng_(seed) {}

  /// `IncrementMany` for n >= 2: geometric waits between bumps of s.
  void FastForward(uint64_t n);

  CsurosParams params_;
  Rng rng_;
  uint64_t s_ = 0;
  bool saturated_ = false;
};

}  // namespace countlib

#endif  // COUNTLIB_BASELINES_CSUROS_H_
