#include "random/geometric.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace countlib {

uint64_t SampleGeometric(Rng* rng, double p) {
  return SampleGeometricLog1m(rng, p, std::log1p(-p));
}

uint64_t SampleGeometricLog1m(Rng* rng, double p, double log1m_p) {
  COUNTLIB_CHECK_GT(p, 0.0);
  COUNTLIB_CHECK_LE(p, 1.0);
  if (p == 1.0) return 1;
  // Inversion: smallest k >= 1 with 1 - (1-p)^k >= U, i.e.
  // k = floor(ln(1-U') / ln(1-p)) + 1 with U' uniform; use U ~ (0,1] directly
  // since 1-U' and U' have the same law. log1m_p = ln(1-p) < 0.
  double u = rng->NextDoublePositive();
  double k = std::floor(std::log(u) / log1m_p) + 1.0;
  if (k >= static_cast<double>(std::numeric_limits<uint64_t>::max())) {
    return std::numeric_limits<uint64_t>::max();
  }
  if (k < 1.0) return 1;  // guard against rounding at u ~ 1
  return static_cast<uint64_t>(k);
}

uint64_t SampleBinomialBySkipping(Rng* rng, uint64_t n, double p) {
  COUNTLIB_CHECK_GE(p, 0.0);
  COUNTLIB_CHECK_LE(p, 1.0);
  if (p == 0.0 || n == 0) return 0;
  if (p == 1.0) return n;
  uint64_t successes = 0;
  uint64_t consumed = 0;
  for (;;) {
    uint64_t wait = SampleGeometric(rng, p);
    if (wait > n - consumed) break;
    consumed += wait;
    ++successes;
    if (consumed == n) break;
  }
  return successes;
}

}  // namespace countlib
