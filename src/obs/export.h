/// \file export.h
/// \brief The unified export surface: serialize one `obs::Snapshot` as
/// Prometheus text exposition. Everything the process measures — pipeline
/// counters, store gauges, hot-path latency histograms — leaves through
/// this one function; examples dump it to a scrape file.
///
/// Export contract (see obs/README.md for the name inventory):
///
///  - counters  → `# TYPE <name> counter` + `<name> <value>`
///  - gauges    → `# TYPE <name> gauge` + `<name> <value>`
///  - histograms → Prometheus classic histograms: cumulative
///                `<name>_bucket{le="<2^i - 1>"}` lines ending in
///                `le="+Inf"`, plus `<name>_sum` and `<name>_count`
///
/// A dump carries one point in time; history is the scraper's job.
///
/// The serializer is deterministic (instruments sort by name) so goldens
/// and `tools/promcheck.py` can diff its output.

#ifndef COUNTLIB_OBS_EXPORT_H_
#define COUNTLIB_OBS_EXPORT_H_

#include <string>

#include "obs/metrics.h"

namespace countlib {
namespace obs {

/// Prometheus text exposition format (version 0.0.4) of `snap`.
std::string ToPrometheusText(const Snapshot& snap);

}  // namespace obs
}  // namespace countlib

#endif  // COUNTLIB_OBS_EXPORT_H_
