#include "obs/trace_report.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <utility>

namespace tdmd::obs {

namespace {

// Narrow JSON helpers for the flat-object subset WriteChromeTrace emits.

/// Index just past the colon of `"key":` in a flat JSON object, or npos.
std::size_t ValueStart(const std::string& object, const std::string& key) {
  const std::size_t pos = object.find("\"" + key + "\"");
  if (pos == std::string::npos) return pos;
  const std::size_t colon = object.find(':', pos + key.size() + 2);
  return colon == std::string::npos ? colon : colon + 1;
}

/// Extracts the string value of `"key": "..."`.  Returns false if the key
/// is absent.  Escapes are left untouched — the trace writer only emits
/// phase names, which contain none.
bool FindStringField(const std::string& object, const std::string& key,
                     std::string* value) {
  const std::size_t start = ValueStart(object, key);
  if (start == std::string::npos) return false;
  const std::size_t open = object.find('"', start);
  if (open == std::string::npos) return false;
  const std::size_t close = object.find('"', open + 1);
  if (close == std::string::npos) return false;
  *value = object.substr(open + 1, close - open - 1);
  return true;
}

bool FindNumberField(const std::string& object, const std::string& key,
                     double* value) {
  const std::size_t start = ValueStart(object, key);
  if (start == std::string::npos) return false;
  const char* begin = object.c_str() + start;
  char* end = nullptr;
  *value = std::strtod(begin, &end);
  return end != begin;
}

/// Splits the top-level objects of a JSON array, honoring nested braces
/// and quoted strings.  `pos` must point just past the opening '['.
bool NextArrayObject(const std::string& text, std::size_t* pos,
                     std::string* object, bool* done) {
  std::size_t i = *pos;
  while (i < text.size() &&
         (text[i] == ',' || text[i] == ' ' || text[i] == '\n' ||
          text[i] == '\r' || text[i] == '\t')) {
    ++i;
  }
  if (i < text.size() && text[i] == ']') {
    *pos = i + 1;
    *done = true;
    return true;
  }
  if (i >= text.size() || text[i] != '{') return false;
  const std::size_t begin = i;
  int depth = 0;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        *object = text.substr(begin, i - begin + 1);
        *pos = i + 1;
        *done = false;
        return true;
      }
    }
  }
  return false;
}

ChromeTrace FailRead(const std::string& error) {
  ChromeTrace trace;
  trace.error = error;
  return trace;
}

}  // namespace

ChromeTrace ReadChromeTrace(std::istream& is) {
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const std::size_t events_key = text.find("\"traceEvents\"");
  if (events_key == std::string::npos) {
    return FailRead("no \"traceEvents\" key — not a Chrome trace JSON file");
  }
  std::size_t pos = text.find('[', events_key);
  if (pos == std::string::npos) {
    return FailRead("\"traceEvents\" is not followed by an array");
  }
  ++pos;

  ChromeTrace trace;
  for (;;) {
    std::string object;
    bool done = false;
    if (!NextArrayObject(text, &pos, &object, &done)) {
      return FailRead("malformed traceEvents array (unbalanced object)");
    }
    if (done) break;
    ChromeEvent event;
    if (!FindStringField(object, "name", &event.name) ||
        !FindStringField(object, "ph", &event.ph) ||
        !FindNumberField(object, "ts", &event.ts)) {
      return FailRead("trace event missing name/ph/ts: " + object);
    }
    if (event.ph == "X" && !FindNumberField(object, "dur", &event.dur)) {
      return FailRead("complete event missing dur: " + object);
    }
    event.has_tid = FindNumberField(object, "tid", &event.tid);
    // arg and batch live in the "args" object; flow records have none.
    const std::size_t args_key = object.find("\"args\"");
    if (args_key != std::string::npos) {
      const std::string args = object.substr(args_key);
      event.has_arg = FindNumberField(args, "arg", &event.arg);
      double batch = 0.0;
      if (FindNumberField(args, "batch", &batch) && batch > 0.0) {
        event.batch = static_cast<std::uint64_t>(batch);
      }
    }
    trace.events.push_back(std::move(event));
  }
  if (trace.events.empty()) {
    return FailRead("trace contains no events");
  }
  trace.ok = true;
  return trace;
}

TraceReport BuildTraceReport(std::istream& is) {
  const ChromeTrace trace = ReadChromeTrace(is);
  TraceReport report;
  if (!trace.ok) {
    report.error = trace.error;
    return report;
  }
  std::map<std::string, TraceReportRow> phases;
  std::set<double> tids;
  double min_ts = trace.events.front().ts;
  double max_end = 0.0;
  for (const ChromeEvent& event : trace.events) {
    if (event.has_tid) tids.insert(event.tid);
    TraceReportRow& row = phases[event.name];
    row.name = event.name;
    row.is_span = row.is_span || event.ph == "X";
    ++row.count;
    row.total_us += event.dur;
    row.max_us = std::max(row.max_us, event.dur);
    min_ts = std::min(min_ts, event.ts);
    max_end = std::max(max_end, event.ts + event.dur);
  }

  report.num_events = trace.events.size();
  report.num_threads = tids.size();
  report.wall_us = max_end - min_ts;
  for (auto& entry : phases) report.rows.push_back(std::move(entry.second));
  std::sort(report.rows.begin(), report.rows.end(),
            [](const TraceReportRow& a, const TraceReportRow& b) {
              if (a.is_span != b.is_span) return a.is_span;  // spans first
              if (a.is_span) return a.total_us > b.total_us;
              if (a.count != b.count) return a.count > b.count;
              return a.name < b.name;
            });
  report.ok = true;
  return report;
}

void WriteTraceReport(std::ostream& os, const TraceReport& report) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: %zu events, %zu threads, wall %.3f ms\n",
                report.num_events, report.num_threads,
                report.wall_us / 1000.0);
  os << line;
  std::snprintf(line, sizeof(line), "%-18s %6s %12s %12s %12s %7s\n", "phase",
                "count", "total_ms", "mean_us", "max_us", "share");
  os << line;
  for (const TraceReportRow& row : report.rows) {
    if (row.is_span) {
      const double mean_us =
          row.count == 0 ? 0.0 : row.total_us / static_cast<double>(row.count);
      const double share =
          report.wall_us <= 0.0 ? 0.0 : row.total_us / report.wall_us;
      std::snprintf(line, sizeof(line),
                    "%-18s %6llu %12.3f %12.3f %12.3f %6.1f%%\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.total_us / 1000.0, mean_us, row.max_us,
                    share * 100.0);
    } else {
      std::snprintf(line, sizeof(line), "%-18s %6llu %12s %12s %12s %7s\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.count), "-", "-", "-",
                    "-");
    }
    os << line;
  }
}

}  // namespace tdmd::obs
