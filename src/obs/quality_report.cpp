#include "obs/quality_report.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "obs/quality.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_report.hpp"

namespace tdmd::obs {

namespace {

QualityReport Fail(const std::string& error) {
  QualityReport report;
  report.error = error;
  return report;
}

/// The summary both sources share: min/mean/last ratio, below-floor
/// count and the series sizes, folded over the points in order.
QualityReport Summarize(QualityReport report) {
  report.num_samples = report.points.size();
  report.num_alert_events = report.alerts.size();
  report.ok = true;
  if (report.points.empty()) return report;
  double ratio_sum = 0.0;
  report.min_ratio = report.points.front().ratio;
  for (const QualityReportPoint& point : report.points) {
    ratio_sum += point.ratio;
    report.min_ratio = std::min(report.min_ratio, point.ratio);
    if (point.ratio < kQualityRatioFloor) ++report.below_floor;
  }
  report.mean_ratio = ratio_sum / static_cast<double>(report.num_samples);
  report.last_ratio = report.points.back().ratio;
  return report;
}

}  // namespace

QualityReport BuildQualityReport(std::istream& is) {
  const ChromeTrace trace = ReadChromeTrace(is);
  if (!trace.ok) return Fail(trace.error);

  QualityReport report;
  for (const ChromeEvent& event : trace.events) {
    if (event.name == "fleet-submit") {
      return Fail("trace contains fleet-submit spans — quality-report "
                  "reads single-engine traces (use fleet-report)");
    }
    if (event.name != "quality-sample" && event.name != "quality-alert") {
      continue;
    }
    if (!event.has_arg || event.arg < 0.0) {
      return Fail("quality event missing args.arg: " + event.name);
    }
    // Packed args stay below 2^53 for any epoch count a trace can hold,
    // so the double round-trip through JSON is exact.
    const auto arg = static_cast<std::uint64_t>(event.arg);
    if (event.name == "quality-sample") {
      QualityReportPoint point;
      UnpackQualitySampleArg(arg, &point.epoch, &point.ratio);
      report.points.push_back(point);
    } else {
      QualityAlert alert;
      if (!UnpackQualityAlertArg(arg, &alert)) {
        return Fail("quality-alert event with unknown kind: arg " +
                    std::to_string(arg));
      }
      report.alerts.push_back(QualityReportAlertRow{
          QualityAlertKindName(alert.kind), alert.raised, alert.epoch});
    }
  }
  if (report.points.empty()) {
    return Fail(
        "trace contains no quality-sample events — was the serve traced "
        "with quality sampling enabled?");
  }
  return Summarize(std::move(report));
}

QualityReport BuildQualityReport(const QualityTimelineSnapshot& timeline) {
  QualityReport report;
  report.points.reserve(timeline.samples.size());
  for (const QualitySample& sample : timeline.samples) {
    report.points.push_back(
        QualityReportPoint{sample.epoch, sample.realized_ratio});
  }
  report.alerts.reserve(timeline.alerts.size());
  for (const QualityAlert& alert : timeline.alerts) {
    report.alerts.push_back(QualityReportAlertRow{
        QualityAlertKindName(alert.kind), alert.raised, alert.epoch});
  }
  return Summarize(std::move(report));
}

void WriteQualityReport(std::ostream& os, const QualityReport& report) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "quality: %zu samples, %zu alert events, floor %.4f\n",
                report.num_samples, report.num_alert_events,
                kQualityRatioFloor);
  os << line;
  std::snprintf(line, sizeof(line),
                "ratio: min %.4f mean %.4f last %.4f, %zu below floor\n",
                report.min_ratio, report.mean_ratio, report.last_ratio,
                report.below_floor);
  os << line;
  for (const QualityReportAlertRow& row : report.alerts) {
    std::snprintf(line, sizeof(line), "alert %-30s %-7s epoch %llu\n",
                  row.kind.c_str(), row.raised ? "RAISED" : "cleared",
                  static_cast<unsigned long long>(row.epoch));
    os << line;
  }
  for (const QualityReportPoint& point : report.points) {
    std::snprintf(line, sizeof(line), "epoch %6llu ratio %.4f %s\n",
                  static_cast<unsigned long long>(point.epoch),
                  point.ratio,
                  point.ratio < kQualityRatioFloor ? "<floor" : "");
    os << line;
  }
}

}  // namespace tdmd::obs
