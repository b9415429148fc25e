#include "core/merge.h"

#include <cmath>
#include <utility>

#include "util/logging.h"
#include "util/math.h"

namespace countlib {

namespace {

Status CheckSameNelsonYuParams(const NelsonYuParams& a, const NelsonYuParams& b) {
  if (a.epsilon != b.epsilon || a.delta_log2 != b.delta_log2 || a.c != b.c ||
      a.x_cap != b.x_cap || a.y_cap != b.y_cap || a.t_cap != b.t_cap) {
    return Status::InvalidArgument("cannot merge Nelson-Yu counters with "
                                   "different parameters");
  }
  return Status::OK();
}

Status CheckSameSamplingParams(const SamplingCounterParams& a,
                               const SamplingCounterParams& b) {
  if (a.budget != b.budget || a.t_cap != b.t_cap) {
    return Status::InvalidArgument(
        "cannot merge sampling counters with different parameters");
  }
  return Status::OK();
}

Status CheckSameMorrisParams(const MorrisParams& a, const MorrisParams& b) {
  if (a.a != b.a || a.x_cap != b.x_cap || a.prefix_limit != b.prefix_limit) {
    return Status::InvalidArgument(
        "cannot merge Morris counters with different parameters");
  }
  return Status::OK();
}

// Remark 2.4 inserts the lower counter's survivors into the higher one so
// rates line up. When the donor is the higher counter, merge in the other
// direction into a copy of it, then adopt the copy. The copy keeps dest's
// coin stream: the donor is const, so its RNG never advances, and adopting
// it would replay the same coins on every merge with that donor (a store
// merge decodes every key into one scratch counter).
template <typename C>
Status MergeIntoCopyOfDonor(C* dest, const C& donor) {
  C merged = donor;
  *merged.rng() = *dest->rng();
  COUNTLIB_RETURN_NOT_OK(MergeInto(&merged, *dest));
  *dest = std::move(merged);
  return Status::OK();
}

}  // namespace

Status MergeInto(NelsonYuCounter* dest, const NelsonYuCounter& donor) {
  COUNTLIB_RETURN_NOT_OK(CheckSameNelsonYuParams(dest->params(), donor.params()));
  if (donor.saturated() || dest->saturated()) {
    return Status::CapacityExceeded("cannot merge saturated counters");
  }
  // Source rate >= destination rate throughout: the lower counter's
  // survivors go into the higher one.
  if (donor.x() > dest->x()) return MergeIntoCopyOfDonor(dest, donor);
  for (const auto& epoch : donor.SurvivorsByEpoch()) {
    for (uint64_t i = 0; i < epoch.count; ++i) {
      COUNTLIB_RETURN_NOT_OK(dest->AddSubsampledSurvivor(epoch.t));
    }
  }
  return Status::OK();
}

Result<NelsonYuCounter> Merge(const NelsonYuCounter& a, const NelsonYuCounter& b) {
  const NelsonYuCounter& high = a.x() >= b.x() ? a : b;
  const NelsonYuCounter& low = a.x() >= b.x() ? b : a;
  NelsonYuCounter merged = high;
  COUNTLIB_RETURN_NOT_OK(MergeInto(&merged, low));
  return merged;
}

Status MergeInto(SamplingCounter* dest, const SamplingCounter& donor) {
  COUNTLIB_RETURN_NOT_OK(CheckSameSamplingParams(dest->params(), donor.params()));
  if (donor.saturated() || dest->saturated()) {
    return Status::CapacityExceeded("cannot merge saturated counters");
  }
  if (donor.t() > dest->t() ||
      (donor.t() == dest->t() && donor.y() > dest->y())) {
    return MergeIntoCopyOfDonor(dest, donor);
  }
  // Survivor ledger of the donor: rate level 0 collected a full budget B
  // (if it ever folded) or the current y; levels 1..t-1 collected B/2 each;
  // the current level holds y - B/2.
  const uint64_t budget = donor.params().budget;
  for (uint32_t level = 0; level <= donor.t(); ++level) {
    uint64_t survivors;
    if (level == donor.t()) {
      survivors = donor.t() == 0 ? donor.y() : donor.y() - budget / 2;
    } else if (level == 0) {
      survivors = budget;
    } else {
      survivors = budget / 2;
    }
    for (uint64_t i = 0; i < survivors; ++i) {
      COUNTLIB_RETURN_NOT_OK(dest->AddSubsampledSurvivor(level));
    }
  }
  return Status::OK();
}

Result<SamplingCounter> Merge(const SamplingCounter& a, const SamplingCounter& b) {
  const bool a_high = a.t() > b.t() || (a.t() == b.t() && a.y() >= b.y());
  SamplingCounter merged = a_high ? a : b;
  COUNTLIB_RETURN_NOT_OK(MergeInto(&merged, a_high ? b : a));
  return merged;
}

Status MergeInto(MorrisCounter* dest, const MorrisCounter& donor) {
  COUNTLIB_RETURN_NOT_OK(CheckSameMorrisParams(dest->params(), donor.params()));
  if (donor.saturated() || dest->saturated()) {
    return Status::CapacityExceeded("cannot merge saturated counters");
  }
  if (donor.x() > dest->x()) return MergeIntoCopyOfDonor(dest, donor);
  // [CY20, §2.1]: replay each donor level step j -> j+1 into the
  // destination with acceptance probability (1+a)^{j - X_dest}. Since
  // j < donor.x() <= dest->x() and X_dest only grows, the probability is
  // always < 1.
  const double log1pa = std::log1p(dest->params().a);
  for (uint64_t j = 0; j < donor.x(); ++j) {
    if (dest->x() >= dest->params().x_cap) {
      return Status::CapacityExceeded("Morris merge: destination level cap hit");
    }
    const double p = std::exp((static_cast<double>(j) -
                               static_cast<double>(dest->x())) *
                              log1pa);
    if (dest->rng()->Bernoulli(p)) {
      dest->SetLevelForMerge(dest->x() + 1);
    }
  }
  return Status::OK();
}

Result<MorrisCounter> Merge(const MorrisCounter& a, const MorrisCounter& b) {
  const MorrisCounter& high = a.x() >= b.x() ? a : b;
  const MorrisCounter& low = a.x() >= b.x() ? b : a;
  MorrisCounter merged = high;
  COUNTLIB_RETURN_NOT_OK(MergeInto(&merged, low));
  return merged;
}

Status MergeInto(MorrisPlusCounter* dest, const MorrisPlusCounter& donor) {
  COUNTLIB_RETURN_NOT_OK(
      CheckSameMorrisParams(dest->morris().params(), donor.morris().params()));
  // The prefix registers count the two sub-streams exactly until they
  // saturate; their saturating sum is exactly what a single Morris+ prefix
  // over the union would hold (any saturated input forces saturation,
  // since the true union count then exceeds the window too).
  dest->SetPrefixForMerge(SaturatingAdd(dest->prefix(), donor.prefix()));
  return MergeInto(dest->mutable_morris(), donor.morris());
}

Result<MorrisPlusCounter> Merge(const MorrisPlusCounter& a,
                                const MorrisPlusCounter& b) {
  const bool a_high = a.morris().x() >= b.morris().x();
  MorrisPlusCounter merged = a_high ? a : b;
  COUNTLIB_RETURN_NOT_OK(MergeInto(&merged, a_high ? b : a));
  return merged;
}

}  // namespace countlib
