/// \file exact_counter.h
/// \brief The trivial deterministic counter: `ceil(log2(n_max+1))` bits,
/// zero error. The baseline every approximate counter is measured against
/// (and the matching side of the `min` in the Theorem 3.1 lower bound).
///
/// The update and the word codec are inline and the class is `final`, so
/// the store's apply loop (analytics/counter_store.cc) runs them without a
/// virtual call.

#ifndef COUNTLIB_BASELINES_EXACT_COUNTER_H_
#define COUNTLIB_BASELINES_EXACT_COUNTER_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/counter.h"
#include "util/math.h"
#include "util/status.h"

namespace countlib {

/// \brief Deterministic saturating counter provisioned for counts <= n_cap.
class ExactCounter final : public Counter {
 public:
  /// `n_cap >= 1`; the register is provisioned with BitWidth(n_cap) bits
  /// and saturates at n_cap.
  static Result<ExactCounter> Make(uint64_t n_cap);

  void Increment() override {
    if (count_ < n_cap_) ++count_;
  }
  void IncrementMany(uint64_t n) override {
    count_ = std::min(SaturatingAdd(count_, n), n_cap_);
  }
  double Estimate() const override { return static_cast<double>(count_); }
  int StateBits() const override;
  int CurrentStateBits() const override;
  void Reset() override { count_ = 0; }
  std::string Name() const override;
  Status SerializeState(BitWriter* out) const override;
  Status DeserializeState(BitReader* in) override;
  uint64_t PackState() const override { return count_; }
  Status UnpackState(uint64_t word) override {
    if (word > n_cap_) return CountOutOfRange();
    count_ = word;
    return Status::OK();
  }
  Status MergeFrom(const Counter& donor) override;

  uint64_t count() const { return count_; }
  uint64_t n_cap() const { return n_cap_; }
  bool saturated() const { return count_ == n_cap_; }

 private:
  explicit ExactCounter(uint64_t n_cap) : n_cap_(n_cap) {}

  /// `UnpackState`'s error, built out of line: with the message built
  /// inline, the store's exact apply loop ran ~2x slower at 2^20 keys.
  static Status CountOutOfRange();

  uint64_t n_cap_;
  uint64_t count_ = 0;
};

}  // namespace countlib

#endif  // COUNTLIB_BASELINES_EXACT_COUNTER_H_
