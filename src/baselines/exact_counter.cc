#include "baselines/exact_counter.h"

#include "util/math.h"

namespace countlib {

Result<ExactCounter> ExactCounter::Make(uint64_t n_cap) {
  if (n_cap < 1) return Status::InvalidArgument("ExactCounter: n_cap must be >= 1");
  return ExactCounter(n_cap);
}

Status ExactCounter::CountOutOfRange() {
  return Status::InvalidArgument("ExactCounter: count > n_cap");
}

int ExactCounter::StateBits() const { return BitWidth(n_cap_); }

int ExactCounter::CurrentStateBits() const { return BitWidth(count_); }

std::string ExactCounter::Name() const {
  return "exact(bits=" + std::to_string(StateBits()) + ")";
}

Status ExactCounter::SerializeState(BitWriter* out) const {
  out->WriteBits(PackState(), StateBits());
  return Status::OK();
}

Status ExactCounter::DeserializeState(BitReader* in) {
  COUNTLIB_ASSIGN_OR_RETURN(uint64_t word, in->ReadBits(StateBits()));
  return UnpackState(word);
}

Status ExactCounter::MergeFrom(const Counter& donor) {
  const auto* other = dynamic_cast<const ExactCounter*>(&donor);
  if (other == nullptr) {
    return Status::InvalidArgument(
        "ExactCounter::MergeFrom: donor is not an exact counter");
  }
  if (other->n_cap_ != n_cap_) {
    return Status::InvalidArgument(
        "ExactCounter::MergeFrom: donor n_cap differs");
  }
  // Exact counters merge by addition (saturating, like IncrementMany).
  IncrementMany(other->count_);
  return Status::OK();
}

}  // namespace countlib
