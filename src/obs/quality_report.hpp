#pragma once

// Quality timeline reconstruction from a Chrome trace.
//
// The engine emits one kQualitySample instant per epoch and one
// kQualityAlert instant per alert edge, each with a packed arg
// (obs/timeseries.hpp).  BuildQualityReport folds the events of
// ReadChromeTrace (obs/trace_report.hpp) back into the epoch/ratio series
// and the fired alerts — the `tdmd_cli quality-report` subcommand.  The
// timeline overload summarizes an engine's own timeline with the same
// fold (serve-trace --quality-out).

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

struct QualityTimelineSnapshot;

struct QualityReportPoint {
  std::uint64_t epoch = 0;
  double ratio = 0.0;  // realized ratio, ppm resolution
};

struct QualityReportAlertRow {
  std::string kind;
  bool raised = false;
  std::uint64_t epoch = 0;
};

struct QualityReport {
  bool ok = false;
  std::string error;
  std::size_t num_samples = 0;
  std::size_t num_alert_events = 0;
  /// Samples whose ratio sits below the (1 - 1/e) floor.
  std::size_t below_floor = 0;
  double min_ratio = 0.0;
  double mean_ratio = 0.0;
  double last_ratio = 0.0;
  std::vector<QualityReportPoint> points;    // trace order
  std::vector<QualityReportAlertRow> alerts;  // trace order
};

/// Fails on non-trace input (ReadChromeTrace's diagnostics), on fleet
/// traces (their shards' series would interleave into one timeline), and
/// on traces carrying no quality-sample events.
QualityReport BuildQualityReport(std::istream& is);

/// Never fails; an empty timeline reports zero samples.
QualityReport BuildQualityReport(const QualityTimelineSnapshot& timeline);

/// Prints the summary, the alert list and the epoch/ratio series.
void WriteQualityReport(std::ostream& os, const QualityReport& report);

}  // namespace tdmd::obs
