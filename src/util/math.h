/// \file math.h
/// \brief Numerically careful math helpers shared across countlib.
///
/// The counters in this library manipulate quantities like `(1+a)^X` for
/// very small `a` and large `X`; naive `std::pow(1 + a, x)` loses the low
/// bits of `a` immediately. Everything here routes through `log1p`/`expm1`.

#ifndef COUNTLIB_UTIL_MATH_H_
#define COUNTLIB_UTIL_MATH_H_

#include <cstdint>
#include <vector>

namespace countlib {

/// \brief Computes `(1+a)^x` stably for small `a` (as `exp(x*log1p(a))`).
double Pow1p(double a, double x);

/// \brief Computes `((1+a)^x - 1) / a` stably — the Morris estimator.
///
/// For `a == 0` this is the limit `x` (the deterministic counter).
double Pow1pm1OverA(double a, double x);

/// \brief Computes `log_{1+a}(y)` stably, i.e. `log(y) / log1p(a)`.
double Log1pBase(double a, double y);

/// \brief Floor of log2 of `x`; requires `x >= 1`.
int FloorLog2(uint64_t x);

/// \brief Ceiling of log2 of `x`; requires `x >= 1`.
int CeilLog2(uint64_t x);

/// \brief Number of bits needed to store values in `[0, x]` (>= 1).
int BitWidth(uint64_t x);

/// \brief `ceil(x / y)` for positive integers without overflow on the sum.
uint64_t CeilDiv(uint64_t x, uint64_t y);

/// \brief Natural log of the binomial coefficient C(n, k) via lgamma.
double LogBinomial(uint64_t n, uint64_t k);

/// \brief Regularized incomplete beta function I_x(a, b).
///
/// Continued-fraction evaluation (Numerical-Recipes style, implemented from
/// the standard Lentz algorithm). Accurate to ~1e-12 for the ranges used in
/// the test suite.
double RegularizedIncompleteBeta(double a, double b, double x);

/// \brief Regularized upper incomplete gamma function Q(a, x) =
/// Γ(a, x)/Γ(a). Series for x < a+1, continued fraction otherwise.
/// Q(k/2, x/2) is the chi-square upper tail with k degrees of freedom.
double RegularizedGammaQ(double a, double x);

/// \brief Exact Binomial(n, p) upper tail `P(X >= k)`.
double BinomialUpperTail(uint64_t n, double p, uint64_t k);

/// \brief Exact Binomial(n, p) lower tail `P(X <= k)`.
double BinomialLowerTail(uint64_t n, double p, uint64_t k);

/// \brief Multiplicative Chernoff upper-tail bound for Binomial(n, p):
/// `P(X >= (1+d) np) <= exp(-np((1+d)ln(1+d) - d))`, `d >= 0`.
double ChernoffUpperBound(double mean, double delta);

/// \brief Multiplicative Chernoff lower-tail bound for Binomial(n, p):
/// `P(X <= (1-d) np) <= exp(-np d^2 / 2)`, `d in [0, 1]`.
double ChernoffLowerBound(double mean, double delta);

/// \brief Kahan (compensated) summation accumulator.
class KahanSum {
 public:
  /// Adds `x` to the running sum.
  void Add(double x) {
    double y = x - compensation_;
    double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  /// The compensated running sum.
  double Total() const { return sum_; }

  /// Resets to zero.
  void Reset() {
    sum_ = 0;
    compensation_ = 0;
  }

 private:
  double sum_ = 0;
  double compensation_ = 0;
};

/// \brief Computes the mean of a vector with compensated summation.
double Mean(const std::vector<double>& xs);

/// \brief Computes the (population) variance with a two-pass algorithm.
double Variance(const std::vector<double>& xs);

/// \brief Saturating uint64 addition. Inline: the exact counter's update.
inline uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  uint64_t out;
  if (__builtin_add_overflow(a, b, &out)) return ~uint64_t{0};
  return out;
}

/// \brief Saturating uint64 multiplication.
uint64_t SaturatingMul(uint64_t a, uint64_t b);

}  // namespace countlib

#endif  // COUNTLIB_UTIL_MATH_H_
