#pragma once

// The one Chrome-trace reader, plus the per-phase breakdown built on it.
// ReadChromeTrace parses the narrow JSON subset WriteChromeTrace emits (a
// traceEvents array of flat objects, any key order) without a JSON
// dependency.  trace-report (BuildTraceReport), quality-report and
// fleet-report are folds over its events, so they share its diagnostics.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

/// One trace event as the reader sees it: the fields every report needs,
/// with has-flags where the writer may omit a field.
struct ChromeEvent {
  std::string name;
  std::string ph;
  double ts = 0.0;
  double dur = 0.0;  // required on "X" spans; 0 otherwise
  bool has_tid = false;
  double tid = 0.0;
  bool has_arg = false;
  double arg = 0.0;  // args.arg
  std::uint64_t batch = 0;  // args.batch; 0 = unbound, or a flow record
};

struct ChromeTrace {
  bool ok = false;
  std::string error;
  std::vector<ChromeEvent> events;  // file order
};

/// Fails (ok=false, one-line diagnostic) on anything that is not a
/// well-formed non-empty Chrome trace: no traceEvents array, truncated
/// or unbalanced objects, events missing name/ph/ts, "X" spans missing
/// dur, or an empty event array (a trace with zero events reports
/// nothing and is treated as a broken capture rather than silently
/// printing zeros).
ChromeTrace ReadChromeTrace(std::istream& is);

struct TraceReportRow {
  std::string name;
  bool is_span = false;
  std::uint64_t count = 0;
  double total_us = 0.0;  // 0 for instants
  double max_us = 0.0;    // 0 for instants
};

struct TraceReport {
  bool ok = false;
  std::string error;
  std::size_t num_events = 0;
  std::size_t num_threads = 0;
  double wall_us = 0.0;  // span of timestamps covered by the trace
  /// Spans first (by total time descending), then instants (by count).
  std::vector<TraceReportRow> rows;
};

/// Fails with ReadChromeTrace's diagnostics.
TraceReport BuildTraceReport(std::istream& is);

/// Prints the per-phase table: count, total, mean, max, and share of wall
/// time for spans; count for instants.
void WriteTraceReport(std::ostream& os, const TraceReport& report);

}  // namespace tdmd::obs
