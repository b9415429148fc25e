#include "baselines/csuros.h"

#include <cmath>
#include <sstream>

#include "random/geometric.h"
#include "util/logging.h"
#include "util/math.h"

namespace countlib {

int CsurosParams::TotalBits() const {
  const uint64_t s_max =
      (static_cast<uint64_t>(exponent_cap) + 1) << mantissa_bits;
  return BitWidth(s_max - 1);
}

std::string CsurosParams::ToString() const {
  std::ostringstream os;
  os << "csuros(d=" << mantissa_bits << ", e_cap=" << exponent_cap
     << ", bits=" << TotalBits() << ")";
  return os.str();
}

Result<CsurosCounter> CsurosCounter::Make(const CsurosParams& params, uint64_t seed) {
  if (params.mantissa_bits < 1 || params.mantissa_bits > 32) {
    return Status::InvalidArgument("Csuros: mantissa_bits must be in [1, 32]");
  }
  if (params.exponent_cap < 1 || params.exponent_cap > 62) {
    return Status::InvalidArgument("Csuros: exponent_cap must be in [1, 62]");
  }
  if (params.mantissa_bits + BitWidth(params.exponent_cap) > 62) {
    return Status::InvalidArgument("Csuros: state wider than 62 bits");
  }
  return CsurosCounter(params, seed);
}

Result<CsurosCounter> CsurosCounter::FromAccuracy(const Accuracy& acc, uint64_t seed) {
  COUNTLIB_RETURN_NOT_OK(ValidateAccuracy(acc));
  CsurosParams p;
  const double d_raw =
      std::log2(1.0 / (2.0 * acc.epsilon * acc.epsilon * acc.delta));
  p.mantissa_bits =
      static_cast<uint32_t>(std::min(32.0, std::max(1.0, std::ceil(d_raw))));
  // Exponent needed to represent n_max: (2^d + m) 2^e reaches ~n_max at
  // e = log2(n_max / 2^d); add headroom.
  const double e_raw = std::log2(static_cast<double>(acc.n_max)) -
                       static_cast<double>(p.mantissa_bits);
  p.exponent_cap = static_cast<uint32_t>(
      std::min(62.0, std::max(2.0, std::ceil(e_raw) + 8.0)));
  return Make(p, seed);
}

void CsurosCounter::FastForward(uint64_t n) {
  while (n > 0) {
    if (exponent() >= params_.exponent_cap &&
        mantissa() == (uint64_t{1} << params_.mantissa_bits) - 1) {
      saturated_ = true;
      return;
    }
    const uint32_t e = exponent();
    if (e == 0) {
      // Deterministic regime: count directly until the mantissa rolls over.
      const uint64_t room = (uint64_t{1} << params_.mantissa_bits) - s_;
      const uint64_t take = std::min(n, room);
      s_ += take;
      n -= take;
      continue;
    }
    const double p = std::ldexp(1.0, -static_cast<int>(e));
    uint64_t wait = SampleGeometric(&rng_, p);
    if (wait > n) return;
    n -= wait;
    ++s_;
  }
}

double CsurosCounter::Estimate() const {
  const double pow_d = std::ldexp(1.0, static_cast<int>(params_.mantissa_bits));
  const double pow_e = std::ldexp(1.0, static_cast<int>(exponent()));
  return (pow_d + static_cast<double>(mantissa())) * pow_e - pow_d;
}

int CsurosCounter::CurrentStateBits() const { return BitWidth(s_); }

Status CsurosCounter::SerializeState(BitWriter* out) const {
  out->WriteBits(PackState(), params_.TotalBits());
  return Status::OK();
}

Status CsurosCounter::DeserializeState(BitReader* in) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t word, in->ReadBits(params_.TotalBits()));
  return UnpackState(word);
}

}  // namespace countlib
