/// \file rng.h
/// \brief Pseudo-random engines used throughout countlib.
///
/// Three independent generator families are provided:
///  * `SplitMix64` — stateless-style stream used for seeding;
///  * `Xoshiro256pp` — the default engine (fast, 256-bit state);
///  * `Pcg32` — an unrelated family used by tests to cross-check that
///    results do not depend on the engine.
///
/// All engines satisfy the `UniformRandomBitGenerator` concept so they can
/// also drive `<random>` distributions, but countlib's own samplers
/// (Bernoulli / geometric / Zipf) are used in library code for exactness and
/// reproducibility across standard libraries.

#ifndef COUNTLIB_RANDOM_RNG_H_
#define COUNTLIB_RANDOM_RNG_H_

#include <array>
#include <cstdint>

namespace countlib {

/// \brief SplitMix64: 64-bit state, used mainly to seed larger engines.
class SplitMix64 {
 public:
  using result_type = uint64_t;

  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64-bit output.
  uint64_t Next();

  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

 private:
  uint64_t state_;
};

/// \brief xoshiro256++ (Blackman & Vigna). The library's default engine.
class Xoshiro256pp {
 public:
  using result_type = uint64_t;

  /// Seeds the 256-bit state from `seed` via SplitMix64.
  explicit Xoshiro256pp(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next 64-bit output. Inline: every counter coin starts here.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls to Next(); used to carve independent
  /// subsequences for parallel experiments.
  void LongJump();

  uint64_t operator()() { return Next(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> s_;
};

/// \brief PCG32 (O'Neill): 64-bit state, 32-bit output, used for
/// engine-independence checks in tests.
class Pcg32 {
 public:
  using result_type = uint32_t;

  explicit Pcg32(uint64_t seed = 0x853C49E6748FEA9Bull,
                 uint64_t stream = 0xDA3E39CB94B95BDBull);

  /// Next 32-bit output.
  uint32_t Next();

  uint32_t operator()() { return Next(); }
  static constexpr uint32_t min() { return 0; }
  static constexpr uint32_t max() { return ~uint32_t{0}; }

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// \brief Convenience wrapper bundling an engine with common samplers.
///
/// This is the RNG type the counters take. It intentionally exposes exact
/// integer-based sampling primitives so behaviour is bit-reproducible for a
/// given seed.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 1) : engine_(seed) {}

  /// Raw 64 uniform bits.
  uint64_t NextU64() { return engine_.Next(); }

  uint64_t operator()() { return NextU64(); }
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1] (never returns 0; safe for log()).
  double NextDoublePositive() {
    return (static_cast<double>(NextU64() >> 11) + 1.0) * 0x1.0p-53;
  }

  /// Bernoulli with success probability `p` in [0, 1].
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Unbiased uniform integer in [0, bound) (Lemire's method); bound >= 1.
  uint64_t UniformBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  uint64_t UniformRange(uint64_t lo, uint64_t hi) {
    return lo + UniformBelow(hi - lo + 1);
  }

  /// Carves an independent child generator (for per-trial streams).
  Rng Fork() {
    Rng child(NextU64() ^ 0xA02BDBF7BB3C0A7ull);
    child.engine_.LongJump();
    return child;
  }

 private:
  Xoshiro256pp engine_;
};

}  // namespace countlib

#endif  // COUNTLIB_RANDOM_RNG_H_
