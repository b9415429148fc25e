/// \file geometric.h
/// \brief Exact geometric sampling — the engine behind fast-forward
/// increments and behind the paper's §2.2 analysis.
///
/// The improved Morris analysis (§2.2) rests on the observation that the
/// number of increments the counter spends at level `i` is
/// `Z_i ~ Geometric(p_i)` with `p_i = (1+a)^{-i}`. The same fact makes a
/// fast simulation possible: instead of flipping one coin per increment, we
/// can sample the whole waiting time at a level in O(1). This module
/// provides the exact inversion sampler used by `IncrementMany`.

#ifndef COUNTLIB_RANDOM_GEOMETRIC_H_
#define COUNTLIB_RANDOM_GEOMETRIC_H_

#include <cstdint>

#include "random/rng.h"

namespace countlib {

/// \brief Samples `Z ~ Geometric(p)` on support {1, 2, ...}:
/// `P(Z = k) = (1-p)^{k-1} p` — the number of Bernoulli(p) trials up to and
/// including the first success.
///
/// Uses exact inversion: `Z = floor(log(U) / log(1-p)) + 1` with
/// `U ~ Uniform(0,1]`, computed via `log1p` for stability when p is tiny.
/// Saturates at UINT64_MAX for astronomically long waits.
uint64_t SampleGeometric(Rng* rng, double p);

/// \brief `SampleGeometric` with the caller supplying `log1m_p`, which must
/// equal `std::log1p(-p)`: the same draw, bit for bit, minus the `log1p`
/// (callers that visit the same few `p` many times table it once — see
/// `MorrisLevels`).
uint64_t SampleGeometricLog1m(Rng* rng, double p, double log1m_p);

/// \brief Samples the number of successes in `n` Bernoulli(p) trials by
/// skipping between successes with geometric waits.
///
/// Exact (the joint law matches n independent trials marginalized to the
/// success count) and runs in O(successes + 1) expected time — the
/// workhorse behind `IncrementMany` on all sampling-based counters.
uint64_t SampleBinomialBySkipping(Rng* rng, uint64_t n, double p);

}  // namespace countlib

#endif  // COUNTLIB_RANDOM_GEOMETRIC_H_
