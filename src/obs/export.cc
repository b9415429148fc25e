#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace countlib {
namespace obs {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

// Shortest round-trippable decimal form; integral values print without an
// exponent or trailing zeros ("4096", not "4.0960000000000000e+03").
void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g often carries noise digits ("0.10000000000000001"); prefer the
  // shortest precision that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) {
      std::memcpy(buf, probe, sizeof(probe));
      break;
    }
  }
  out->append(buf);
}

int HighestNonEmptyBucket(const HistogramSnapshot& h) {
  for (int b = HistogramSnapshot::kBuckets - 1; b >= 0; --b) {
    if (h.buckets[b] != 0) return b;
  }
  return -1;
}

}  // namespace

std::string ToPrometheusText(const Snapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, value] : snap.counters) {
    out.append("# TYPE ").append(name).append(" counter\n");
    out.append(name).push_back(' ');
    AppendU64(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : snap.gauges) {
    out.append("# TYPE ").append(name).append(" gauge\n");
    out.append(name).push_back(' ');
    AppendDouble(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, h] : snap.histograms) {
    out.append("# TYPE ").append(name).append(" histogram\n");
    // Cumulative classic-histogram buckets. Emitting up to the highest
    // non-empty bucket (not all 65) keeps scrapes readable; the +Inf
    // bucket always closes the series with the total count.
    uint64_t cumulative = 0;
    const int top = HighestNonEmptyBucket(h);
    for (int b = 0; b <= top && b < 64; ++b) {
      cumulative += h.buckets[b];
      out.append(name).append("_bucket{le=\"");
      AppendU64(&out, HistogramSnapshot::BucketUpperBound(b));
      out.append("\"} ");
      AppendU64(&out, cumulative);
      out.push_back('\n');
    }
    out.append(name).append("_bucket{le=\"+Inf\"} ");
    AppendU64(&out, h.count);
    out.push_back('\n');
    out.append(name).append("_sum ");
    AppendU64(&out, h.sum);
    out.push_back('\n');
    out.append(name).append("_count ");
    AppendU64(&out, h.count);
    out.push_back('\n');
  }
  return out;
}

}  // namespace obs
}  // namespace countlib
