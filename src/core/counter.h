/// \file counter.h
/// \brief The abstract approximate-counter interface.
///
/// Every counter in countlib — the paper's Algorithm 1 (`NelsonYuCounter`),
/// the classical Morris counter and its Morris+ tweak, the simplified
/// sampling counter of Figure 1, and the baselines — implements this
/// interface, so experiments and the analytics store can treat them
/// uniformly.
///
/// ## Space accounting
///
/// Following Remark 2.2 of the paper, a counter distinguishes:
///  * `StateBits()` — the *provisioned* number of bits of program state the
///    counter was calibrated to (fixed at construction; what a system
///    storing millions of counters must reserve per counter);
///  * `CurrentStateBits()` — the bits needed for the state *right now*
///    (a random variable; Theorem 2.3 bounds its tail);
///  * scratch registers used transiently while processing an update or
///    query are *not* counted, exactly as the paper argues
///    ("it is reasonable to assume O(log N)-bit registers are available
///    temporarily while processing updates and queries").

#ifndef COUNTLIB_CORE_COUNTER_H_
#define COUNTLIB_CORE_COUNTER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/bit_io.h"
#include "util/status.h"

namespace countlib {

/// \brief Abstract randomized approximate counter.
class Counter {
 public:
  virtual ~Counter() = default;

  /// Processes one increment of the underlying count N.
  virtual void Increment() = 0;

  /// Processes `n` increments. The default loops over `Increment()`;
  /// sampling-based counters override this with an exact O(#accepted)
  /// geometric fast-forward (see random/geometric.h). Morris (and so
  /// Morris+), sampling and Csuros run `Increment()` for n = 1: a wait of
  /// one has the probability of one accepted Bernoulli draw, so that draw
  /// has the same law and costs no `log`. Every path has the same law; the
  /// coins drawn differ between paths.
  virtual void IncrementMany(uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) Increment();
  }

  /// Returns the estimate N-hat of the number of increments so far.
  virtual double Estimate() const = 0;

  /// Provisioned program-state footprint in bits (fixed per instance).
  virtual int StateBits() const = 0;

  /// Bits required by the current state contents (random variable).
  virtual int CurrentStateBits() const = 0;

  /// Restores the freshly-initialized state (the RNG stream continues).
  virtual void Reset() = 0;

  /// Short algorithm name for reports, e.g. "morris(a=0.001)".
  virtual std::string Name() const = 0;

  /// Serializes the program state (only the state — per Remark 2.2 the
  /// parameters are program constants). Appends exactly `StateBits()` bits.
  virtual Status SerializeState(BitWriter* out) const = 0;

  /// Restores program state previously written by `SerializeState`.
  virtual Status DeserializeState(BitReader* in) = 0;

  /// The word codec: the same `StateBits()` bits `SerializeState` writes,
  /// in the low bits of one word (stream bit i is word bit i). Exact,
  /// Morris, sampling and Csuros implement it, and their bit-stream codec
  /// wraps it; it is what `analytics::CounterStore` runs per update. The
  /// other kinds keep only the bit stream: for them this aborts.
  virtual uint64_t PackState() const;

  /// Restores a state packed by `PackState`, with the same range checks as
  /// `DeserializeState` (`kInvalidArgument` on an out-of-range field; the
  /// counter is then unchanged). `kUnimplemented` for kinds without a word
  /// codec.
  virtual Status UnpackState(uint64_t word);

  /// Merges `donor`'s state into this counter. Per Remark 2.4 the merged
  /// state is distributed exactly as a single counter over the
  /// concatenation of both streams — nothing is lost in (ε, δ) — which is
  /// what makes per-shard counting plus merge-on-read exact
  /// (analytics/sharded_counter_store.h). Requires `donor` to be the same
  /// algorithm with identical parameters (`kInvalidArgument` otherwise).
  /// The default returns `kUnimplemented`; mergeable counters override it
  /// by delegating to the typed merges in core/merge.h.
  virtual Status MergeFrom(const Counter& donor) {
    (void)donor;
    return Status::Unimplemented(Name() + ": MergeFrom not supported");
  }
};

}  // namespace countlib

#endif  // COUNTLIB_CORE_COUNTER_H_
