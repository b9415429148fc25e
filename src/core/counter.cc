#include "core/counter.h"

#include "util/logging.h"

namespace countlib {

uint64_t Counter::PackState() const {
  COUNTLIB_LOG(Fatal) << Name() << ": no word codec (use SerializeState)";
  return 0;
}

Status Counter::UnpackState(uint64_t word) {
  (void)word;
  return Status::Unimplemented(Name() +
                               ": no word codec (use DeserializeState)");
}

}  // namespace countlib
