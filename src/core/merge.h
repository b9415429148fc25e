/// \file merge.h
/// \brief Merging approximate counters (Remark 2.4 of the paper).
///
/// Given two counters summarizing unknown counts N1 and N2, merging
/// produces a counter whose state follows the same distribution as one that
/// processed all N1 + N2 increments — nothing is lost in (ε, δ). This is
/// what makes the counters usable in sharded/distributed aggregation
/// (analytics/sharded_counter_store.h).
///
/// * Nelson-Yu / sampling counters: every epoch subsamples at a
///   non-increasing power-of-two rate, and the number of survivors in every
///   *completed* epoch is a deterministic function of the schedule. We
///   replay the lower counter's survivors, epoch by epoch, into the higher
///   counter, re-subsampling each with probability α_dest/α_src = 2^{src_t
///   - dest_t} (Remark 2.4 verbatim).
/// * Morris counters: each level step j -> j+1 of the donor is replayed
///   into the destination by a coin of probability (1+a)^{j - X}, following
///   [CY20, §2.1].
///
/// The test suite validates distributional equivalence with chi-square
/// tests against directly-counted references.

#ifndef COUNTLIB_CORE_MERGE_H_
#define COUNTLIB_CORE_MERGE_H_

#include "core/morris.h"
#include "core/morris_plus.h"
#include "core/nelson_yu.h"
#include "core/sampling_counter.h"
#include "util/status.h"

namespace countlib {

/// \brief Merges `donor` into `dest` (Nelson-Yu counters with identical
/// parameters). After the call `dest` is distributed as a single counter
/// over the union stream; `donor` is left unchanged.
Status MergeInto(NelsonYuCounter* dest, const NelsonYuCounter& donor);

/// \brief Merges two Nelson-Yu counters, returning a fresh counter.
/// The higher-level counter is copied as the base (Remark 2.4 assumes
/// X1 <= X2 and inserts counter 1's survivors into counter 2).
Result<NelsonYuCounter> Merge(const NelsonYuCounter& a, const NelsonYuCounter& b);

/// \brief Merges `donor` into `dest` (sampling counters, identical params).
Status MergeInto(SamplingCounter* dest, const SamplingCounter& donor);

/// \brief Merges two sampling counters.
Result<SamplingCounter> Merge(const SamplingCounter& a, const SamplingCounter& b);

/// \brief Merges `donor` into `dest` (Morris counters, identical `a`),
/// following [CY20, §2.1].
Status MergeInto(MorrisCounter* dest, const MorrisCounter& donor);

/// \brief Merges two Morris counters.
Result<MorrisCounter> Merge(const MorrisCounter& a, const MorrisCounter& b);

/// \brief Merges `donor` into `dest` (Morris+ counters, identical params):
/// the deterministic prefixes add (saturating), the Morris parts merge per
/// [CY20]. The merged counter answers exactly while the *combined* count
/// is within the prefix window, and from the merged Morris estimator
/// afterwards — the same semantics as a single Morris+ over the union.
Status MergeInto(MorrisPlusCounter* dest, const MorrisPlusCounter& donor);

/// \brief Merges two Morris+ counters.
Result<MorrisPlusCounter> Merge(const MorrisPlusCounter& a,
                                const MorrisPlusCounter& b);

}  // namespace countlib

#endif  // COUNTLIB_CORE_MERGE_H_
