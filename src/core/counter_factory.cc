#include "core/counter_factory.h"

#include "baselines/averaged_morris.h"
#include "baselines/csuros.h"
#include "baselines/exact_counter.h"
#include "core/morris.h"
#include "core/morris_plus.h"
#include "core/nelson_yu.h"
#include "core/sampling_counter.h"
#include "util/math.h"

namespace countlib {

const char* CounterKindToString(CounterKind kind) {
  switch (kind) {
    case CounterKind::kExact:
      return "exact";
    case CounterKind::kMorris:
      return "morris";
    case CounterKind::kMorrisPlus:
      return "morris+";
    case CounterKind::kNelsonYu:
      return "nelson-yu";
    case CounterKind::kSampling:
      return "sampling";
    case CounterKind::kCsuros:
      return "csuros";
    case CounterKind::kAveragedMorris:
      return "averaged-morris";
  }
  return "unknown";
}

Result<CounterKind> CounterKindFromString(const std::string& name) {
  for (CounterKind kind : kAllCounterKinds) {
    if (name == CounterKindToString(kind)) return kind;
  }
  return Status::InvalidArgument("unknown counter kind: " + name);
}

namespace {

template <typename T>
std::unique_ptr<Counter> WrapCounter(T counter) {
  return std::make_unique<T>(std::move(counter));
}

}  // namespace

Result<std::unique_ptr<Counter>> MakeCounter(CounterKind kind, const Accuracy& acc,
                                             uint64_t seed) {
  switch (kind) {
    case CounterKind::kExact: {
      COUNTLIB_ASSIGN_OR_RETURN(ExactCounter c, ExactCounter::Make(acc.n_max));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kMorris: {
      COUNTLIB_ASSIGN_OR_RETURN(MorrisCounter c,
                                MorrisCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kMorrisPlus: {
      COUNTLIB_ASSIGN_OR_RETURN(MorrisPlusCounter c,
                                MorrisPlusCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kNelsonYu: {
      COUNTLIB_ASSIGN_OR_RETURN(NelsonYuCounter c,
                                NelsonYuCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kSampling: {
      COUNTLIB_ASSIGN_OR_RETURN(SamplingCounter c,
                                SamplingCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kCsuros: {
      COUNTLIB_ASSIGN_OR_RETURN(CsurosCounter c,
                                CsurosCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kAveragedMorris: {
      COUNTLIB_ASSIGN_OR_RETURN(AveragedMorrisCounter c,
                                AveragedMorrisCounter::FromAccuracy(acc, seed));
      return WrapCounter(std::move(c));
    }
  }
  return Status::InvalidArgument("unhandled counter kind");
}

Result<std::unique_ptr<Counter>> MakeCounterForBits(CounterKind kind, int state_bits,
                                                    uint64_t n_max, uint64_t seed) {
  switch (kind) {
    case CounterKind::kExact: {
      if (state_bits < 1 || state_bits > 62) {
        return Status::InvalidArgument("exact: state_bits must be in [1, 62]");
      }
      const uint64_t cap = (state_bits == 62) ? ((uint64_t{1} << 62) - 1)
                                              : ((uint64_t{1} << state_bits) - 1);
      COUNTLIB_ASSIGN_OR_RETURN(ExactCounter c, ExactCounter::Make(cap));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kMorris: {
      COUNTLIB_ASSIGN_OR_RETURN(MorrisParams params,
                                MorrisForStateBits(state_bits, n_max));
      COUNTLIB_ASSIGN_OR_RETURN(MorrisCounter c, MorrisCounter::Make(params, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kSampling: {
      COUNTLIB_ASSIGN_OR_RETURN(SamplingCounterParams params,
                                SamplingForStateBits(state_bits, n_max));
      COUNTLIB_ASSIGN_OR_RETURN(SamplingCounter c,
                                SamplingCounter::Make(params, seed));
      return WrapCounter(std::move(c));
    }
    case CounterKind::kCsuros: {
      if (n_max < 2) return Status::InvalidArgument("n_max must be >= 2");
      // Spend bits on the exponent to cover n_max, the rest on the mantissa.
      CsurosParams params;
      const int e_needed = BitWidth(static_cast<uint64_t>(CeilLog2(n_max)) + 8);
      if (state_bits <= e_needed + 1) {
        return Status::InvalidArgument("csuros: state_bits too small for n_max");
      }
      params.mantissa_bits = static_cast<uint32_t>(state_bits - e_needed);
      params.exponent_cap = (uint32_t{1} << e_needed) - 1;
      COUNTLIB_ASSIGN_OR_RETURN(CsurosCounter c, CsurosCounter::Make(params, seed));
      return WrapCounter(std::move(c));
    }
    default:
      return Status::InvalidArgument(
          std::string("bit-budget calibration not supported for kind ") +
          CounterKindToString(kind));
  }
}

}  // namespace countlib
