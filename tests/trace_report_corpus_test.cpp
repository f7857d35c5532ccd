// Malformed-trace corpus for the one Chrome-trace reader: trace-report and
// quality-report must reject truncated, empty and garbage inputs with a
// one-line diagnostic instead of silently reporting zeros, and a genuine
// WriteChromeTrace stream must round-trip through both reports.  The
// quality summary of an engine's own timeline must agree with the one
// rebuilt from its trace.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "obs/quality_report.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/trace_report.hpp"
#include "topology/generators.hpp"
#include "traffic/generator.hpp"

namespace tdmd::obs {
namespace {

TraceReport Trace(const std::string& text) {
  std::istringstream is(text);
  return BuildTraceReport(is);
}

QualityReport Quality(const std::string& text) {
  std::istringstream is(text);
  return BuildQualityReport(is);
}

std::string SampleEvent(std::uint64_t epoch, double ratio) {
  return R"({"name": "quality-sample", "ph": "i", "ts": 1, "tid": 0, )"
         R"("args": {"arg": )" +
         std::to_string(PackQualitySampleArg(epoch, ratio)) + "}}";
}

// Every corpus entry must fail BOTH builders with a diagnostic that
// mentions what went wrong; none may come back ok with zeroed stats.
struct CorpusCase {
  const char* label;
  const char* text;
  const char* diagnostic;  // substring both errors must contain
};

TEST(TraceReportCorpusTest, MalformedInputsAreRejectedWithDiagnostics) {
  const CorpusCase corpus[] = {
      {"empty file", "", "traceEvents"},
      {"garbage", "complete garbage \x01\x02 not json", "traceEvents"},
      {"wrong value type", R"({"traceEvents": {}})", "array"},
      {"truncated event",
       R"({"traceEvents": [{"name": "epoch", "ph": "X", "ts": 1)",
       "malformed"},
      {"missing fields", R"({"traceEvents": [{"ph": "i", "ts": 3}]})",
       "missing name/ph/ts"},
      {"span without dur",
       R"({"traceEvents": [{"name": "epoch", "ph": "X", "ts": 1}]})",
       "dur"},
      {"no events", R"({"traceEvents": []})", "no events"},
  };
  for (const CorpusCase& c : corpus) {
    const TraceReport trace = Trace(c.text);
    EXPECT_FALSE(trace.ok) << c.label;
    EXPECT_NE(trace.error.find(c.diagnostic), std::string::npos)
        << c.label << ": " << trace.error;
    EXPECT_EQ(trace.num_events, 0u) << c.label;

    const QualityReport quality = Quality(c.text);
    EXPECT_FALSE(quality.ok) << c.label;
    EXPECT_NE(quality.error.find(c.diagnostic), std::string::npos)
        << c.label << ": " << quality.error;
    EXPECT_EQ(quality.num_samples, 0u) << c.label;
  }
}

TEST(TraceReportCorpusTest, QualityReportRejectsTraceWithoutSamples) {
  const std::string text =
      R"({"traceEvents": [{"name": "epoch", "ph": "i", "ts": 1}]})";
  EXPECT_TRUE(Trace(text).ok);  // structurally fine for trace-report
  const QualityReport quality = Quality(text);
  EXPECT_FALSE(quality.ok);
  EXPECT_NE(quality.error.find("no quality-sample events"),
            std::string::npos);
}

TEST(TraceReportCorpusTest, ReaderTakesBatchOnlyFromArgs) {
  // Flow records name themselves "batch" but carry no args: they must
  // read as unbound, whatever number follows the name (here the flow id,
  // once in the writer's key order and once with "id" right after it).
  std::istringstream is(
      R"({"traceEvents": [{"name":"batch","cat":"batch","ph":"s","id":7,)"
      R"("pid":1,"tid":2,"ts":5},)"
      R"({"name":"batch","id":7,"ph":"f","tid":1,"ts":6,"bp":"e"},)"
      R"({"name":"patch","ph":"X","tid":1,"ts":6,"dur":2,)"
      R"("args":{"arg":3,"batch":9}}]})");
  const ChromeTrace trace = ReadChromeTrace(is);
  ASSERT_TRUE(trace.ok) << trace.error;
  ASSERT_EQ(trace.events.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    const ChromeEvent& flow = trace.events[static_cast<std::size_t>(i)];
    EXPECT_EQ(flow.name, "batch") << i;
    EXPECT_EQ(flow.batch, 0u) << i;
    EXPECT_FALSE(flow.has_arg) << i;
  }
  EXPECT_TRUE(trace.events[0].has_tid);
  EXPECT_EQ(trace.events[0].tid, 2.0);
  const ChromeEvent& patch = trace.events[2];
  EXPECT_EQ(patch.batch, 9u);
  EXPECT_TRUE(patch.has_arg);
  EXPECT_EQ(patch.arg, 3.0);
  EXPECT_EQ(patch.dur, 2.0);
}

TEST(TraceReportCorpusTest, QualityReportRejectsFleetTraces) {
  // Every shard samples its own series; read as one timeline they would
  // interleave, so a trace with fleet-submit spans is refused.
  const std::string text =
      R"({"traceEvents": [)" + SampleEvent(1, 1.0) +
      R"(, {"name": "fleet-submit", "ph": "X", "ts": 1, "dur": 3, )"
      R"("tid": 0, "args": {"arg": 1, "batch": 1}}, )" +
      SampleEvent(1, 0.5) + "]}";
  EXPECT_TRUE(Trace(text).ok);
  const QualityReport quality = Quality(text);
  EXPECT_FALSE(quality.ok);
  EXPECT_NE(quality.error.find("fleet-submit"), std::string::npos)
      << quality.error;
  EXPECT_EQ(quality.error.find('\n'), std::string::npos);
  EXPECT_EQ(quality.num_samples, 0u);
}

TEST(TraceReportCorpusTest, QualityReportRejectsBrokenQualityEvents) {
  const QualityReport no_arg = Quality(
      R"({"traceEvents": [{"name": "quality-sample", "ph": "i", "ts": 1}]})");
  EXPECT_FALSE(no_arg.ok);
  EXPECT_NE(no_arg.error.find("missing args.arg"), std::string::npos);

  // kind 3 does not exist; the packed arg must be rejected, not mapped.
  const std::string bogus_kind =
      R"({"traceEvents": [)" + SampleEvent(1, 1.0) +
      R"(, {"name": "quality-alert", "ph": "i", "ts": 2, "args": )"
      R"({"arg": 7}}]})";
  const QualityReport alert = Quality(bogus_kind);
  EXPECT_FALSE(alert.ok);
  EXPECT_NE(alert.error.find("unknown kind"), std::string::npos);
}

TEST(TraceReportCorpusTest, HandWrittenQualityTraceRoundTrips) {
  QualityAlert raised;
  raised.kind = QualityAlertKind::kQualityGapCusum;
  raised.raised = true;
  raised.epoch = 2;
  QualityAlert cleared = raised;
  cleared.raised = false;
  cleared.epoch = 3;
  const std::string text =
      R"({"traceEvents": [)" + SampleEvent(1, 1.0) + ", " +
      SampleEvent(2, 0.25) + ", " + SampleEvent(3, 0.75) +
      R"(, {"name": "quality-alert", "ph": "i", "ts": 2, "args": {"arg": )" +
      std::to_string(PackQualityAlertArg(raised)) +
      R"(}}, {"name": "quality-alert", "ph": "i", "ts": 3, "args": {"arg": )" +
      std::to_string(PackQualityAlertArg(cleared)) + "}}]}";

  const QualityReport report = Quality(text);
  ASSERT_TRUE(report.ok) << report.error;
  EXPECT_EQ(report.num_samples, 3u);
  EXPECT_EQ(report.num_alert_events, 2u);
  EXPECT_EQ(report.below_floor, 1u);
  EXPECT_NEAR(report.min_ratio, 0.25, 1e-6);
  EXPECT_NEAR(report.last_ratio, 0.75, 1e-6);
  ASSERT_EQ(report.alerts.size(), 2u);
  EXPECT_EQ(report.alerts[0].kind, "quality-gap-cusum");
  EXPECT_TRUE(report.alerts[0].raised);
  EXPECT_FALSE(report.alerts[1].raised);

  std::ostringstream os;
  WriteQualityReport(os, report);
  EXPECT_NE(os.str().find("3 samples"), std::string::npos);
  EXPECT_NE(os.str().find("RAISED"), std::string::npos);
  EXPECT_NE(os.str().find("<floor"), std::string::npos);
}

TEST(TraceReportCorpusTest, RealChromeTraceRoundTripsBothBuilders) {
  Tracer tracer;
  InstallTracer(&tracer);
  TraceInstant(TracePhase::kQualitySample, PackQualitySampleArg(5, 0.8));
  QualityAlert alert;
  alert.kind = QualityAlertKind::kAdoptionStalenessBurnRate;
  alert.raised = true;
  alert.epoch = 5;
  TraceInstant(TracePhase::kQualityAlert, PackQualityAlertArg(alert));
  InstallTracer(nullptr);
  const TraceDrainResult drained = tracer.Drain();

  std::ostringstream os;
  WriteChromeTrace(os, drained);

  const TraceReport trace = Trace(os.str());
  ASSERT_TRUE(trace.ok) << trace.error;
  EXPECT_EQ(trace.num_events, 2u);

  const QualityReport quality = Quality(os.str());
  ASSERT_TRUE(quality.ok) << quality.error;
  ASSERT_EQ(quality.num_samples, 1u);
  EXPECT_EQ(quality.points[0].epoch, 5u);
  EXPECT_NEAR(quality.points[0].ratio, 0.8, 1e-6);
  ASSERT_EQ(quality.alerts.size(), 1u);
  EXPECT_EQ(quality.alerts[0].kind, "adoption-staleness-burn-rate");
}

TEST(TraceReportCorpusTest, TimelineAndTraceSummariesAgree) {
  // A traced synchronous engine run: serve-trace --quality-out summarizes
  // the engine's timeline, quality-report rebuilds it from the trace.
  // Both must agree sample for sample, up to the trace's ppm encoding.
  Rng rng(5);
  const graph::Digraph network = topology::Waxman(30, 0.5, 0.4, rng);
  traffic::WorkloadParams params;
  params.flow_density = 0.05;
  params.max_flows = 60;
  const traffic::FlowSet prefill =
      traffic::GenerateGeneralWorkload(network, {}, params, rng);
  engine::ChurnModel churn;
  churn.arrival_count = 4;
  churn.departure_probability = 0.2;
  const engine::ChurnTrace churn_trace =
      engine::BuildChurnTrace(network, churn, 10, prefill.size(), 11);

  engine::EngineOptions options;
  options.k = 4;
  options.synchronous = true;
  Tracer tracer;
  InstallTracer(&tracer);
  QualityTimelineSnapshot timeline;
  {
    engine::Engine eng(network, options);
    std::vector<engine::FlowTicket> tickets =
        eng.SubmitBatch(prefill, {}).tickets;
    for (const engine::ChurnEpoch& epoch : churn_trace.epochs) {
      const engine::Engine::BatchResult batch = eng.SubmitBatch(
          epoch.arrivals, engine::DepartingIds(epoch, tickets));
      tickets.insert(tickets.end(), batch.tickets.begin(),
                     batch.tickets.end());
    }
    timeline = eng.QualityTimeline();
  }
  InstallTracer(nullptr);
  std::ostringstream os;
  WriteChromeTrace(os, tracer.Drain());

  const QualityReport from_trace = Quality(os.str());
  const QualityReport from_timeline = BuildQualityReport(timeline);
  ASSERT_TRUE(from_trace.ok) << from_trace.error;
  ASSERT_TRUE(from_timeline.ok);
  ASSERT_GE(from_timeline.num_samples, 11u);
  ASSERT_EQ(from_trace.num_samples, from_timeline.num_samples);
  constexpr double kPpm = 1e-6;
  for (std::size_t i = 0; i < from_trace.points.size(); ++i) {
    EXPECT_EQ(from_trace.points[i].epoch, from_timeline.points[i].epoch)
        << i;
    EXPECT_NEAR(from_trace.points[i].ratio, from_timeline.points[i].ratio,
                kPpm)
        << i;
  }
  EXPECT_NEAR(from_trace.min_ratio, from_timeline.min_ratio, kPpm);
  EXPECT_NEAR(from_trace.mean_ratio, from_timeline.mean_ratio, kPpm);
  EXPECT_NEAR(from_trace.last_ratio, from_timeline.last_ratio, kPpm);
  EXPECT_EQ(from_trace.below_floor, from_timeline.below_floor);
  ASSERT_EQ(from_trace.alerts.size(), from_timeline.alerts.size());
  for (std::size_t i = 0; i < from_trace.alerts.size(); ++i) {
    EXPECT_EQ(from_trace.alerts[i].kind, from_timeline.alerts[i].kind);
    EXPECT_EQ(from_trace.alerts[i].raised, from_timeline.alerts[i].raised);
    EXPECT_EQ(from_trace.alerts[i].epoch, from_timeline.alerts[i].epoch);
  }

  std::ostringstream a;
  std::ostringstream b;
  WriteQualityReport(a, from_trace);
  WriteQualityReport(b, from_timeline);
  EXPECT_EQ(a.str().substr(0, a.str().find('\n')),
            b.str().substr(0, b.str().find('\n')));
}

}  // namespace
}  // namespace tdmd::obs
