/// \file key_weight.h
/// \brief `KeyWeight`, the one update record of the write path: the unit
/// of the stores' batch API, of the pipeline's batch submit, and of the
/// wire's event batches (`net::EventRecord` is this type).

#ifndef COUNTLIB_ANALYTICS_KEY_WEIGHT_H_
#define COUNTLIB_ANALYTICS_KEY_WEIGHT_H_

#include <cstdint>

namespace countlib {
namespace analytics {

/// \brief One weighted update: `weight` increments to `key`.
struct KeyWeight {
  uint64_t key = 0;
  uint64_t weight = 0;
};

}  // namespace analytics
}  // namespace countlib

#endif  // COUNTLIB_ANALYTICS_KEY_WEIGHT_H_
