/// \file exact_counter.h
/// \brief The trivial deterministic counter: `ceil(log2(n_max+1))` bits,
/// zero error. The baseline every approximate counter is measured against
/// (and the matching side of the `min` in the Theorem 3.1 lower bound).

#ifndef COUNTLIB_BASELINES_EXACT_COUNTER_H_
#define COUNTLIB_BASELINES_EXACT_COUNTER_H_

#include <cstdint>
#include <string>

#include "core/counter.h"
#include "util/status.h"

namespace countlib {

/// \brief Deterministic saturating counter provisioned for counts <= n_cap.
class ExactCounter : public Counter {
 public:
  /// `n_cap >= 1`; the register is provisioned with BitWidth(n_cap) bits
  /// and saturates at n_cap.
  static Result<ExactCounter> Make(uint64_t n_cap);

  void Increment() override;
  void IncrementMany(uint64_t n) override;
  double Estimate() const override { return static_cast<double>(count_); }
  int StateBits() const override;
  int CurrentStateBits() const override;
  void Reset() override { count_ = 0; }
  std::string Name() const override;
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  uint64_t PackState() const override { return count_; }
  Status UnpackState(uint64_t word) override;
  Status MergeFrom(const Counter& donor) override;

  uint64_t count() const { return count_; }
  uint64_t n_cap() const { return n_cap_; }
  bool saturated() const { return count_ == n_cap_; }

 private:
  explicit ExactCounter(uint64_t n_cap) : n_cap_(n_cap) {}

  uint64_t n_cap_;
  uint64_t count_ = 0;
};

}  // namespace countlib

#endif  // COUNTLIB_BASELINES_EXACT_COUNTER_H_
