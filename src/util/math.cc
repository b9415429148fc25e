#include "util/math.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace countlib {

double Pow1p(double a, double x) {
  COUNTLIB_CHECK_GT(a, -1.0);
  return std::exp(x * std::log1p(a));
}

double Pow1pm1OverA(double a, double x) {
  COUNTLIB_CHECK_GT(a, -1.0);
  if (a == 0.0) return x;
  return std::expm1(x * std::log1p(a)) / a;
}

double Log1pBase(double a, double y) {
  COUNTLIB_CHECK_GT(a, -1.0);
  COUNTLIB_CHECK_NE(a, 0.0);
  COUNTLIB_CHECK_GT(y, 0.0);
  return std::log(y) / std::log1p(a);
}

int FloorLog2(uint64_t x) {
  COUNTLIB_CHECK_GE(x, 1u);
  return 63 - __builtin_clzll(x);
}

int CeilLog2(uint64_t x) {
  COUNTLIB_CHECK_GE(x, 1u);
  int fl = FloorLog2(x);
  return ((x & (x - 1)) == 0) ? fl : fl + 1;
}

int BitWidth(uint64_t x) { return x == 0 ? 1 : FloorLog2(x) + 1; }

uint64_t CeilDiv(uint64_t x, uint64_t y) {
  COUNTLIB_CHECK_GT(y, 0u);
  return x / y + (x % y != 0 ? 1 : 0);
}

double LogBinomial(uint64_t n, uint64_t k) {
  COUNTLIB_CHECK_LE(k, n);
  return std::lgamma(static_cast<double>(n) + 1) -
         std::lgamma(static_cast<double>(k) + 1) -
         std::lgamma(static_cast<double>(n - k) + 1);
}

namespace {

// Continued fraction for the incomplete beta function (Lentz's algorithm).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 500;
  constexpr double kEps = 1e-15;
  constexpr double kFpMin = 1e-300;

  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  COUNTLIB_CHECK_GT(a, 0.0);
  COUNTLIB_CHECK_GT(b, 0.0);
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                    a * std::log(x) + b * std::log1p(-x);
  double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

namespace {

// Lower regularized gamma P(a, x) via power series (valid for x < a + 1).
double GammaPSeries(double a, double x) {
  double sum = 1.0 / a;
  double term = sum;
  for (int n = 1; n < 1000; ++n) {
    term *= x / (a + n);
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper regularized gamma Q(a, x) via continued fraction (x >= a + 1).
double GammaQContinuedFraction(double a, double x) {
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double RegularizedGammaQ(double a, double x) {
  COUNTLIB_CHECK_GT(a, 0.0);
  COUNTLIB_CHECK_GE(x, 0.0);
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double BinomialUpperTail(uint64_t n, double p, uint64_t k) {
  COUNTLIB_CHECK_GE(p, 0.0);
  COUNTLIB_CHECK_LE(p, 1.0);
  if (k == 0) return 1.0;
  if (k > n) return 0.0;
  if (p == 0.0) return 0.0;
  if (p == 1.0) return 1.0;
  // P(X >= k) = I_p(k, n - k + 1).
  return RegularizedIncompleteBeta(static_cast<double>(k),
                                   static_cast<double>(n - k + 1), p);
}

double BinomialLowerTail(uint64_t n, double p, uint64_t k) {
  if (k >= n) return 1.0;
  return 1.0 - BinomialUpperTail(n, p, k + 1);
}

double ChernoffUpperBound(double mean, double delta) {
  COUNTLIB_CHECK_GE(mean, 0.0);
  COUNTLIB_CHECK_GE(delta, 0.0);
  if (mean == 0.0) return delta > 0 ? 0.0 : 1.0;
  double exponent = mean * ((1.0 + delta) * std::log1p(delta) - delta);
  return std::exp(-exponent);
}

double ChernoffLowerBound(double mean, double delta) {
  COUNTLIB_CHECK_GE(mean, 0.0);
  COUNTLIB_CHECK_GE(delta, 0.0);
  COUNTLIB_CHECK_LE(delta, 1.0);
  return std::exp(-mean * delta * delta / 2.0);
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  KahanSum sum;
  for (double x : xs) sum.Add(x);
  return sum.Total() / static_cast<double>(xs.size());
}

double Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double mu = Mean(xs);
  KahanSum sum;
  for (double x : xs) sum.Add((x - mu) * (x - mu));
  return sum.Total() / static_cast<double>(xs.size());
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  uint64_t out;
  if (__builtin_mul_overflow(a, b, &out)) {
    return std::numeric_limits<uint64_t>::max();
  }
  return out;
}

}  // namespace countlib
