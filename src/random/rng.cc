#include "random/rng.h"

namespace countlib {

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Xoshiro256pp::Xoshiro256pp(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
  // All-zero state is invalid; SplitMix64 cannot produce four zero outputs
  // from any seed, but keep a belt-and-suspenders guard.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ull;
}

void Xoshiro256pp::LongJump() {
  static constexpr uint64_t kJump[] = {0x76E15D3EFEFDCBBFull, 0xC5004E441C522FB3ull,
                                       0x77710069854EE241ull, 0x39109BB02ACBE635ull};
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (uint64_t{1} << b)) {
        s0 ^= s_[0];
        s1 ^= s_[1];
        s2 ^= s_[2];
        s3 ^= s_[3];
      }
      Next();
    }
  }
  s_ = {s0, s1, s2, s3};
}

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1) | 1u) {
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ull + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
  uint32_t rot = static_cast<uint32_t>(old >> 59);
  return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
}

uint64_t Rng::UniformBelow(uint64_t bound) {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  if (bound == 0) return 0;
  unsigned __int128 m =
      static_cast<unsigned __int128>(NextU64()) * static_cast<unsigned __int128>(bound);
  uint64_t lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    uint64_t threshold = (~bound + 1) % bound;  // == 2^64 mod bound
    while (lo < threshold) {
      m = static_cast<unsigned __int128>(NextU64()) *
          static_cast<unsigned __int128>(bound);
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

}  // namespace countlib
