// Tests for the export surface: Prometheus text exposition.

#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"
#include "obs/metrics.h"

namespace countlib {
namespace obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

Snapshot SampleSnapshot() {
  Snapshot snap;
  snap.counters["countlib_pipeline_events_submitted_total"] = 1000;
  snap.counters["countlib_pipeline_events_dropped_total"] = 0;
  snap.gauges["countlib_pipeline_queue_depth"] = 12.0;
  Histogram h;
  h.Record(0);
  h.Record(3);
  h.Record(900);
  snap.histograms["countlib_pipeline_submit_apply_latency_ns"] = h.Snapshot();
  return snap;
}

TEST(ObsExportTest, PrometheusCountersAndGauges) {
  const std::string text = ToPrometheusText(SampleSnapshot());
  EXPECT_TRUE(Contains(
      text, "# TYPE countlib_pipeline_events_submitted_total counter\n"
            "countlib_pipeline_events_submitted_total 1000\n"));
  EXPECT_TRUE(Contains(text,
                       "# TYPE countlib_pipeline_queue_depth gauge\n"
                       "countlib_pipeline_queue_depth 12\n"));
}

TEST(ObsExportTest, PrometheusHistogramIsCumulativeWithInf) {
  const std::string text = ToPrometheusText(SampleSnapshot());
  EXPECT_TRUE(Contains(
      text, "# TYPE countlib_pipeline_submit_apply_latency_ns histogram\n"));
  // Value 0 -> bucket le="0"; 3 -> le="3" (width 2); 900 -> le="1023".
  // Buckets are cumulative and close with +Inf == count.
  EXPECT_TRUE(Contains(
      text, "countlib_pipeline_submit_apply_latency_ns_bucket{le=\"0\"} 1\n"));
  EXPECT_TRUE(Contains(
      text, "countlib_pipeline_submit_apply_latency_ns_bucket{le=\"3\"} 2\n"));
  EXPECT_TRUE(Contains(
      text,
      "countlib_pipeline_submit_apply_latency_ns_bucket{le=\"1023\"} 3\n"));
  EXPECT_TRUE(Contains(
      text,
      "countlib_pipeline_submit_apply_latency_ns_bucket{le=\"+Inf\"} 3\n"));
  EXPECT_TRUE(
      Contains(text, "countlib_pipeline_submit_apply_latency_ns_sum 903\n"));
  EXPECT_TRUE(
      Contains(text, "countlib_pipeline_submit_apply_latency_ns_count 3\n"));
}

TEST(ObsExportTest, PrometheusIsDeterministic) {
  EXPECT_EQ(ToPrometheusText(SampleSnapshot()),
            ToPrometheusText(SampleSnapshot()));
}

TEST(ObsExportTest, EmptySnapshotSerializes) {
  const Snapshot empty;
  const std::string text = ToPrometheusText(empty);
  EXPECT_TRUE(text.empty());
}

}  // namespace
}  // namespace obs
}  // namespace countlib
