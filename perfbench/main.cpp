// tdmd serving benchmark: one closed-loop client thread drives one
// workload through the public entry points of the engine (or the sharded
// fleet), checks every published answer independently, and prints the
// end-to-end metrics (untraced run) or the per-layer ledger (traced run).
// See README.md in this directory for the workloads and metric table.
//
// A run repeats whole passes over the same seeded input while another pass
// still fits in --seconds.  Every pass rebuilds the engine from scratch (one
// set-up sample each), replays the identical epochs and ends with a few
// recovery cycles, so the passes of one run double as the determinism
// self-check: their deterministic counters must agree exactly.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "core/gtp.hpp"
#include "core/instance.hpp"
#include "engine/checkpoint.hpp"
#include "engine/coverage_index.hpp"
#include "engine/engine.hpp"
#include "engine/incremental_gtp.hpp"
#include "io/text_format.hpp"
#include "obs/histogram.hpp"
#include "shard/fleet_io.hpp"
#include "shard/sharded_engine.hpp"
#include "workload.hpp"

namespace tdmd::perfbench {
namespace {

using obs::MonotonicNanos;

/// The topology is fixed so that run-to-run spread reflects the traffic
/// drawn from --seed, not a different network per seed.
constexpr std::uint64_t kTopologySeed = 20200817;
constexpr VertexId kVertices = 200;
constexpr double kLambda = 0.5;
/// Churn epochs per pass: >= 200, so that >= 10 samples lie beyond p95.
constexpr std::size_t kEpochsPerPass = 200;
/// Fleet only: epochs between union snapshot checks.
constexpr std::size_t kFleetCheckEvery = 10;
/// Recovery cycles (Checkpoint -> write -> parse -> Restore) at the end of
/// every pass.
constexpr std::size_t kRecoveryCycles = 5;
/// Fleet only: two pinned workers and the pinned client thread leave one of
/// the reference host's four cores free, so that epoch latency measures
/// the fleet rather than the scheduler.
constexpr std::size_t kFleetShards = 2;
/// Set-up is sampled at least this often per run (extra set-up-only
/// repetitions when fewer passes fit in --seconds).
constexpr std::size_t kMinSetups = 9;

struct WorkloadSpec {
  std::string name;
  std::size_t hubs = 1;
  TrafficShape shape;
  std::size_t k = 10;
  bool fleet = false;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "single_dst_churn") {
    spec.hubs = 1;
    spec.shape.arrival_fraction = 0.05;
    spec.shape.departure_probability = 0.05;
    spec.k = 10;
  } else if (name == "hub_resolve") {
    spec.hubs = 32;
    spec.shape.arrival_fraction = 0.005;
    spec.shape.departure_probability = 0.005;
    spec.k = 40;
  } else if (name == "regional_fleet") {
    spec.hubs = 8;
    spec.shape.regional = true;
    spec.shape.arrival_fraction = 0.16;
    spec.shape.departure_probability = 0.16;
    spec.k = 32;
    spec.fleet = true;
  } else {
    return std::nullopt;
  }
  return spec;
}

double Ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile; `beyond` receives the samples above it.
double Quantile(std::vector<double> values, double q, std::size_t* beyond) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (beyond != nullptr) *beyond = values.size() - index - 1;
  return values[index];
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- spans ------------------------------------------------------------------

enum class Layer : std::uint8_t {
  kHarness,
  kSubmit,
  kSnapshotRead,
  kCheck,
  kIndex,
  kSolve,
  kRecovery,
  kCapture,
  kWrite,
  kRead,
  kRestore,
  kRoute,
  kDrain,
  kFleetSnapshot,
};

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kHarness: return "harness";
    case Layer::kSubmit: return "engine.submit";
    case Layer::kSnapshotRead: return "engine.snapshot_read";
    case Layer::kCheck: return "check";
    case Layer::kIndex: return "index";
    case Layer::kSolve: return "solve";
    case Layer::kRecovery: return "recovery";
    case Layer::kCapture: return "checkpoint.capture";
    case Layer::kWrite: return "checkpoint.write";
    case Layer::kRead: return "checkpoint.read";
    case Layer::kRestore: return "checkpoint.restore";
    case Layer::kRoute: return "shard.route";
    case Layer::kDrain: return "shard.drain";
    case Layer::kFleetSnapshot: return "shard.snapshot";
  }
  return "?";
}

/// Checkpoint phases nest inside a recovery span; every other layer is a
/// top-level step of the epoch loop.
bool TopLevel(Layer layer) {
  return layer != Layer::kCapture && layer != Layer::kWrite &&
         layer != Layer::kRead && layer != Layer::kRestore;
}

struct Span {
  Layer layer;
  std::uint32_t epoch;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span log of the traced pass, written once at exit.  Disabled
/// recorders drop every span, so untraced passes pay one branch per call.
class SpanLog {
 public:
  bool enabled = false;
  std::vector<Span> spans;

  void Add(Layer layer, std::uint64_t epoch, std::uint64_t start_ns,
           std::uint64_t end_ns) {
    if (enabled) {
      spans.push_back(Span{layer, static_cast<std::uint32_t>(epoch),
                           start_ns, end_ns});
    }
  }

  /// Chrome trace-event JSON (one complete event per span).
  void Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    const std::uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\": \""
          << LayerName(s.layer) << "\", \"ph\": \"X\", \"pid\": 1, "
          << "\"tid\": 1, \"ts\": "
          << static_cast<double>(s.start_ns - base) / 1e3
          << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ", \"args\": {\"epoch\": " << s.epoch << "}}";
    }
    out << "\n]}\n";
  }
};

// --- live flows and the independent checker --------------------------------

struct LiveFlow {
  std::int64_t handle;  // engine ticket or fleet flow id
  std::int32_t path;
  Rate rate;
};

/// The client's view of its live flows, one list per generator pool.
/// Departures swap-remove in descending position order, so an epoch's
/// bookkeeping is O(churn).
class LiveSet {
 public:
  explicit LiveSet(std::size_t pools) : pools_(pools) {}

  std::vector<std::size_t> sizes() const {
    std::vector<std::size_t> out;
    out.reserve(pools_.size());
    for (const auto& pool : pools_) out.push_back(pool.size());
    return out;
  }
  std::size_t total() const { return total_; }
  const std::vector<std::vector<LiveFlow>>& pools() const { return pools_; }

  /// Removes the batch's departures and returns their handles in
  /// ascending position order.
  std::vector<std::int64_t> TakeDepartures(const Batch& batch) {
    std::vector<LiveFlow>& pool = pools_[batch.departure_pool];
    std::vector<std::int64_t> handles(batch.departures.size());
    for (std::size_t i = batch.departures.size(); i-- > 0;) {
      const std::size_t pos = batch.departures[i];
      handles[i] = pool[pos].handle;
      pool[pos] = pool.back();
      pool.pop_back();
    }
    total_ -= handles.size();
    return handles;
  }

  void Add(const Batch& batch, const std::vector<std::int64_t>& handles) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      pools_[batch.arrival_pools[i]].push_back(
          LiveFlow{handles[i], batch.arrival_paths[i],
                   batch.arrivals[i].rate});
    }
    total_ += handles.size();
  }

 private:
  std::vector<std::vector<LiveFlow>> pools_;
  std::size_t total_ = 0;
};

struct Evaluation {
  Bandwidth bandwidth = 0.0;
  bool feasible = true;
};

/// b(P) under the nearest-source allocation, computed from the client's
/// own flow list: a flow served at path position i pays r * (i + lambda *
/// (|p| - i)); an unserved flow pays r * |p|.
Evaluation Evaluate(const LiveSet& live, const PathCache& paths,
                    const core::Deployment& deployment) {
  std::vector<double> unit_cost(paths.size());
  std::vector<std::int8_t> served(paths.size());
  for (std::size_t id = 0; id < paths.size(); ++id) {
    const auto& vertices =
        paths.path(static_cast<std::int32_t>(id)).vertices;
    const double edges = static_cast<double>(vertices.size() - 1);
    unit_cost[id] = edges;
    served[id] = 0;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      if (deployment.Contains(vertices[i])) {
        unit_cost[id] =
            static_cast<double>(i) + kLambda * (edges - static_cast<double>(i));
        served[id] = 1;
        break;
      }
    }
  }
  Evaluation eval;
  for (const auto& pool : live.pools()) {
    for (const LiveFlow& flow : pool) {
      const auto id = static_cast<std::size_t>(flow.path);
      const double rate = static_cast<double>(flow.rate);
      eval.bandwidth += rate * unit_cost[id];
      eval.feasible = eval.feasible && served[id] != 0;
    }
  }
  return eval;
}

bool SameBandwidth(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// --- per-run accumulation ---------------------------------------------------

/// What one pass must reproduce exactly on the same seed.
struct Digest {
  std::vector<std::uint64_t> counters;
  std::vector<VertexId> deployment;
  Bandwidth bandwidth = 0.0;
  std::size_t index_bytes = 0;
  std::size_t active_flows = 0;

  bool operator==(const Digest&) const = default;
};

struct PassResult {
  double setup_s = 0.0;
  std::vector<double> epoch_ms;
  std::uint64_t events = 0;
  std::uint64_t epoch_ns = 0;
  std::uint64_t harness_ns = 0;
  std::vector<double> snapshot_read_samples;
  std::uint64_t epochs_failed = 0;
  std::vector<double> recovery_ms, capture_ms, write_ms, read_ms, restore_ms;
  std::vector<double> checkpoint_bytes_per_flow;
  double bandwidth_frac = 0.0;
  double bytes_per_flow = 0.0;
  Digest digest;
  std::map<std::string, double> layer;  // per-layer metrics of this pass
  std::uint64_t loop_start_ns = 0, loop_end_ns = 0;
};

struct Run {
  Run(const WorkloadSpec& s, const Topology& t, std::uint64_t sd)
      : spec(s), topo(t), seed(sd) {}

  const WorkloadSpec& spec;
  const Topology& topo;
  std::uint64_t seed;
  SpanLog spans;
  std::vector<std::string> errors;
  double peak_rss_mb = 0.0;
  /// Wall time of the batch-GTP reference, run once per run (< 0: not yet).
  double gtp_ref_ms = -1.0;

  void Fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

/// Pins the calling (client) thread to the last CPU it may run on, away
/// from the fleet workers, which pin_threads places on CPUs 0 and 1.  A
/// pinned client keeps its cache instead of following the scheduler's
/// migrations.  Threads inherit the mask, so the client stays unpinned
/// unless the workers' CPUs are allowed too; a refused request also leaves
/// it unpinned.
void PinClientThread() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (std::size_t cpu = 0; cpu < kFleetShards; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) return;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= static_cast<int>(kFleetShards);
       --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- single engine ----------------------------------------------------------

engine::EngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  engine::EngineOptions options;
  options.k = spec.k;
  options.lambda = kLambda;
  options.move_threshold = 0.0;
  options.synchronous = true;
  return options;
}

/// Books one recovery cycle from its stage clocks: capture, write, parse,
/// restore, done.
void RecordRecovery(Run& run, PassResult& pass, std::uint64_t epoch,
                    const std::array<std::uint64_t, 5>& t, std::size_t bytes,
                    std::size_t flows) {
  run.spans.Add(Layer::kCapture, epoch, t[0], t[1]);
  run.spans.Add(Layer::kWrite, epoch, t[1], t[2]);
  run.spans.Add(Layer::kRead, epoch, t[2], t[3]);
  run.spans.Add(Layer::kRestore, epoch, t[3], t[4]);
  run.spans.Add(Layer::kRecovery, epoch, t[0], t[4]);
  pass.recovery_ms.push_back(Ms(t[4] - t[0]));
  pass.capture_ms.push_back(Ms(t[1] - t[0]));
  pass.write_ms.push_back(Ms(t[2] - t[1]));
  pass.read_ms.push_back(Ms(t[3] - t[2]));
  pass.restore_ms.push_back(Ms(t[4] - t[3]));
  pass.checkpoint_bytes_per_flow.push_back(
      Ratio(static_cast<double>(bytes), static_cast<double>(flows)));
}

std::vector<std::int64_t> ToHandles(const std::vector<engine::FlowTicket>& t) {
  return {t.begin(), t.end()};
}

std::string EngineRecord(const engine::Engine& eng) {
  std::ostringstream os;
  io::EngineCheckpointWriteOptions options;
  options.include_histograms = false;
  io::WriteEngineCheckpoint(os, eng.Checkpoint(), options);
  return os.str();
}

/// Checkpoint -> write -> parse -> Restore into a fresh engine; verifies
/// the restored engine against the live one outside the timed window.
void EngineRecovery(Run& run, PassResult& pass, const engine::Engine& live,
                    std::uint64_t epoch) {
  const std::uint64_t t0 = MonotonicNanos();
  const engine::EngineCheckpoint checkpoint = live.Checkpoint();
  const std::uint64_t t1 = MonotonicNanos();
  std::ostringstream os;
  io::WriteEngineCheckpoint(os, checkpoint);
  const std::string text = os.str();
  const std::uint64_t t2 = MonotonicNanos();
  std::istringstream is(text);
  io::Parsed<engine::EngineCheckpoint> parsed = io::ReadEngineCheckpoint(is);
  const std::uint64_t t3 = MonotonicNanos();
  if (!parsed.ok()) {
    run.Fail("checkpoint parse failed at epoch " + std::to_string(epoch) +
             ": " + parsed.error);
    return;
  }
  auto restored = std::make_unique<engine::Engine>(run.topo.network,
                                                  EngineOptionsFor(run.spec));
  restored->Restore(*parsed.value);
  const std::uint64_t t4 = MonotonicNanos();
  RecordRecovery(run, pass, epoch, {t0, t1, t2, t3, t4}, text.size(),
                 checkpoint.active_flows.size());

  const std::uint64_t c0 = MonotonicNanos();
  if (EngineRecord(*restored) != EngineRecord(live) ||
      restored->CurrentSnapshot()->bandwidth !=
          live.CurrentSnapshot()->bandwidth) {
    run.Fail("restored engine differs from the live one at epoch " +
             std::to_string(epoch));
  }
  restored.reset();
  run.spans.Add(Layer::kCheck, epoch, c0, MonotonicNanos());
}

Digest EngineDigest(const engine::Engine& eng) {
  Digest digest;
  const engine::EngineStats stats = eng.stats();
#define TDMD_PERFBENCH_COUNTER(name) digest.counters.push_back(stats.name);
  TDMD_ENGINE_STATS_COUNTERS(TDMD_PERFBENCH_COUNTER)
#undef TDMD_PERFBENCH_COUNTER
  const auto snapshot = eng.CurrentSnapshot();
  digest.deployment = snapshot->deployment.vertices();
  digest.bandwidth = snapshot->bandwidth;
  const engine::EngineMemoryStats mem = eng.MemoryUsage();
  digest.index_bytes = mem.index_bytes;
  digest.active_flows = mem.active_flows;
  return digest;
}

/// From-scratch references on the final flow set.  Batch feasibility-aware
/// GTP is the solver the engine's re-solve must reproduce exactly
/// (SolveIncrementalGtp on a fresh index gives the same deployment, in the
/// same order).  The engine's own plan is never worse than it: with
/// move_threshold 0 a re-solve is adopted whenever it is at least as good
/// as the maintained plan, so a maintained plan that stays strictly better
/// than the fresh greedy answer is kept.  Returns the batch GTP wall time.
double CheckAgainstGtp(Run& run, const LiveSet& live, const PathCache& paths,
                       Bandwidth engine_bandwidth) {
  traffic::FlowSet flows;
  flows.reserve(live.total());
  engine::FlowCoverageIndex index(run.topo.network, kLambda);
  for (const auto& pool : live.pools()) {
    for (const LiveFlow& flow : pool) {
      const graph::Path& path = paths.path(flow.path);
      flows.push_back(traffic::Flow{path.vertices.front(),
                                    path.vertices.back(), flow.rate, path});
      index.AddFlow(flows.back());
    }
  }
  const std::uint64_t g0 = MonotonicNanos();
  core::GtpOptions gtp_options;
  gtp_options.max_middleboxes = run.spec.k;
  gtp_options.feasibility_aware = true;
  const core::PlacementResult reference = core::Gtp(
      core::Instance(run.topo.network, std::move(flows), kLambda),
      gtp_options);
  const double gtp_ms = Ms(MonotonicNanos() - g0);

  engine::IncrementalGtpOptions solve_options;
  solve_options.max_middleboxes = run.spec.k;
  solve_options.feasibility_aware = true;
  const engine::IncrementalGtpResult resolve =
      engine::SolveIncrementalGtp(index, solve_options);
  if (!reference.feasible ||
      resolve.deployment.vertices() != reference.deployment.vertices() ||
      !SameBandwidth(resolve.bandwidth, reference.bandwidth)) {
    run.Fail("incremental re-solve b=" + std::to_string(resolve.bandwidth) +
             " differs from batch GTP b=" +
             std::to_string(reference.bandwidth));
  }
  if (engine_bandwidth > reference.bandwidth &&
      !SameBandwidth(engine_bandwidth, reference.bandwidth)) {
    run.Fail("final b(P)=" + std::to_string(engine_bandwidth) +
             " is worse than batch GTP b=" +
             std::to_string(reference.bandwidth));
  }
  std::cout << "  reference: final b(P) " << engine_bandwidth
            << ", batch GTP " << reference.bandwidth << " ("
            << gtp_ms << " ms), incremental re-solve equal\n";
  return gtp_ms;
}

/// Standalone replay of the engine's index deltas and re-solve, timed from
/// outside the engine (traced passes only).
struct Replay {
  engine::FlowCoverageIndex index;
  std::uint64_t index_ns = 0;
  std::uint64_t solve_ns = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t prefill_ns = 0;
};

PassResult EnginePass(Run& run, bool traced) {
  const WorkloadSpec& spec = run.spec;
  PassResult pass;
  run.spans.enabled = traced;
  Generator gen(run.topo, spec.shape, run.seed);
  LiveSet live(gen.num_pools());
  Batch prefill = gen.Prefill();

  const std::uint64_t s0 = MonotonicNanos();
  auto eng = std::make_unique<engine::Engine>(run.topo.network,
                                              EngineOptionsFor(spec));
  const engine::Engine::BatchResult first =
      eng->SubmitBatch(prefill.arrivals, {});
  auto snapshot = eng->CurrentSnapshot();
  pass.setup_s = static_cast<double>(MonotonicNanos() - s0) / 1e9;
  live.Add(prefill, ToHandles(first.tickets));

  const Bandwidth unprocessed =
      Evaluate(live, gen.paths(), core::Deployment(kVertices)).bandwidth;
  std::optional<Replay> replay;
  if (traced) {
    replay.emplace(
        Replay{engine::FlowCoverageIndex(run.topo.network, kLambda)});
    const std::uint64_t r0 = MonotonicNanos();
    for (std::size_t i = 0; i < prefill.arrivals.size(); ++i) {
      if (replay->index.AddFlow(std::move(prefill.arrivals[i])) !=
          first.tickets[i]) {
        run.Fail("standalone index issued a different prefill ticket");
        break;
      }
    }
    replay->prefill_ns = MonotonicNanos() - r0;
  }
  const engine::EngineStats stats0 = eng->stats();
  const engine::EngineHistograms hist0 = eng->histograms();

  std::uint64_t stale = stats0.stale_departures;
  // Declared outside the loop so that freeing the previous epoch's batch
  // falls inside the next harness span.
  Batch batch;
  pass.loop_start_ns = MonotonicNanos();
  for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
    const std::uint64_t h0 = MonotonicNanos();
    batch = gen.NextEpoch(e, live.sizes());
    const std::vector<std::int64_t> handles = live.TakeDepartures(batch);
    const std::vector<engine::FlowTicket> departing(handles.begin(),
                                                    handles.end());
    const std::uint64_t h1 = MonotonicNanos();
    const engine::Engine::BatchResult result =
        eng->SubmitBatch(batch.arrivals, departing);
    const std::uint64_t h2 = MonotonicNanos();
    live.Add(batch, ToHandles(result.tickets));
    const std::uint64_t h3 = MonotonicNanos();
    snapshot = eng->CurrentSnapshot();
    const std::uint64_t h4 = MonotonicNanos();
    run.spans.Add(Layer::kHarness, e, h0, h1);
    run.spans.Add(Layer::kSubmit, e, h1, h2);
    run.spans.Add(Layer::kHarness, e, h2, h3);
    run.spans.Add(Layer::kSnapshotRead, e, h3, h4);
    pass.epoch_ms.push_back(Ms(h2 - h1));
    pass.epoch_ns += h2 - h1;
    pass.harness_ns += (h1 - h0) + (h3 - h2);
    pass.snapshot_read_samples.push_back(static_cast<double>(h4 - h3));
    pass.events += batch.arrivals.size() + departing.size();

    // Correctness of the published answer, outside every timed window.
    const std::uint64_t c0 = MonotonicNanos();
    const Evaluation eval = Evaluate(live, gen.paths(), snapshot->deployment);
    const engine::EngineStats stats = eng->stats();
    bool ok = snapshot->feasible && eval.feasible &&
              SameBandwidth(snapshot->bandwidth, eval.bandwidth) &&
              snapshot->deployment.size() <= spec.k &&
              stats.stale_departures == stale;
    stale = stats.stale_departures;
    if (!ok) {
      ++pass.epochs_failed;
      run.Fail("epoch " + std::to_string(e) + ": snapshot b=" +
               std::to_string(snapshot->bandwidth) + " independent b=" +
               std::to_string(eval.bandwidth) + " feasible=" +
               std::to_string(snapshot->feasible) + "/" +
               std::to_string(eval.feasible));
    }
    run.spans.Add(Layer::kCheck, e, c0, MonotonicNanos());

    if (replay) {
      const std::uint64_t i0 = MonotonicNanos();
      for (engine::FlowTicket ticket : departing) {
        replay->index.RemoveFlow(ticket);
      }
      bool same_tickets = true;
      for (std::size_t i = 0; i < batch.arrivals.size(); ++i) {
        same_tickets &= replay->index.AddFlow(std::move(batch.arrivals[i])) ==
                        result.tickets[i];
      }
      const std::uint64_t i1 = MonotonicNanos();
      engine::IncrementalGtpOptions solve_options;
      solve_options.max_middleboxes = spec.k;
      solve_options.feasibility_aware = true;
      const engine::IncrementalGtpResult solved =
          engine::SolveIncrementalGtp(replay->index, solve_options);
      const std::uint64_t i2 = MonotonicNanos();
      run.spans.Add(Layer::kIndex, e, i0, i1);
      run.spans.Add(Layer::kSolve, e, i1, i2);
      replay->index_ns += i1 - i0;
      replay->solve_ns += i2 - i1;
      replay->oracle_calls += solved.oracle_calls;
      if (!same_tickets) run.Fail("standalone index diverged from the engine");
    }
  }
  pass.loop_end_ns = MonotonicNanos();
  // Recovery runs after the epoch loop, so that the cache a restore evicts
  // is never refilled inside a timed epoch.
  for (std::size_t c = 0; c < kRecoveryCycles; ++c) {
    EngineRecovery(run, pass, *eng, kEpochsPerPass);
  }

  const engine::EngineStats stats = eng->stats();
  const engine::EngineMemoryStats mem = eng->MemoryUsage();
  const Evaluation final_eval =
      Evaluate(live, gen.paths(), snapshot->deployment);
  pass.bandwidth_frac = Ratio(final_eval.bandwidth, unprocessed);
  pass.bytes_per_flow = Ratio(static_cast<double>(mem.index_bytes),
                              static_cast<double>(mem.active_flows));
  if (mem.active_flows != live.total()) {
    run.Fail("engine holds " + std::to_string(mem.active_flows) +
             " flows, client has " + std::to_string(live.total()));
  }
  pass.digest = EngineDigest(*eng);
  if (run.peak_rss_mb == 0.0) run.peak_rss_mb = PeakRssMb();

  if (run.gtp_ref_ms < 0.0) {
    run.gtp_ref_ms = CheckAgainstGtp(run, live, gen.paths(),
                                     final_eval.bandwidth);
  }

  const double epochs = static_cast<double>(kEpochsPerPass);
  const double events = static_cast<double>(pass.events);
  auto& m = pass.layer;
  m["core.gtp_ref_ms"] = run.gtp_ref_ms;
  m["index.delta_ops_per_event"] =
      Ratio(static_cast<double>(stats.index_delta_ops - stats0.index_delta_ops),
            events);
  m["index.bytes_per_flow"] = pass.bytes_per_flow;
  const double reevals =
      static_cast<double>(stats.gain_reevals - stats0.gain_reevals);
  const double saved =
      static_cast<double>(stats.reevals_saved - stats0.reevals_saved);
  m["solve.gain_reevals_per_epoch"] = reevals / epochs;
  m["solve.lazy_skip_frac"] = Ratio(saved, saved + reevals);
  m["engine.adoptions_per_epoch"] =
      static_cast<double>(stats.adoptions - stats0.adoptions) / epochs;
  m["engine.moves_per_epoch"] =
      static_cast<double>(stats.middlebox_moves - stats0.middlebox_moves) /
      epochs;
  const engine::EngineHistograms hist = eng->histograms();
  m["engine.patch_us_p50"] =
      static_cast<double>(hist.patch_ns.Quantile(0.5)) / 1e3;
  m["engine.snapshot_read_ns"] = Median(pass.snapshot_read_samples);
  if (replay) {
    const double submit_ms = Ms(pass.epoch_ns) / epochs;
    const double index_ms = Ms(replay->index_ns) / epochs;
    const double solve_ms = Ms(replay->solve_ns) / epochs;
    m["engine.submit_ms_p50"] = Median(pass.epoch_ms);
    m["engine.glue_ms_per_epoch"] = submit_ms - index_ms - solve_ms;
    m["index.ns_per_event"] =
        Ratio(static_cast<double>(replay->index_ns), events);
    m["index.path_classes"] =
        static_cast<double>(replay->index.num_path_classes());
    m["index.prefill_ns_per_flow"] =
        Ratio(static_cast<double>(replay->prefill_ns),
              static_cast<double>(prefill.arrivals.size()));
    m["solve.ms_per_epoch"] = solve_ms;
    m["solve.ns_per_reeval"] =
        Ratio(static_cast<double>(replay->solve_ns),
              static_cast<double>(replay->oracle_calls));
    m["index.share_of_epoch"] = Ratio(index_ms, submit_ms);
    m["solve.share_of_epoch"] = Ratio(solve_ms, submit_ms);
    m["engine.glue_share_of_epoch"] =
        Ratio(submit_ms - index_ms - solve_ms, submit_ms);
    // Cross-check against the engine's own histograms over the same epochs.
    m["index.engine_hist_ratio"] =
        Ratio(static_cast<double>(hist.index_delta_ns.sum() -
                                  hist0.index_delta_ns.sum()),
              static_cast<double>(replay->index_ns));
    m["solve.engine_hist_ratio"] =
        Ratio(static_cast<double>(hist.resolve_ns.sum() -
                                  hist0.resolve_ns.sum()),
              static_cast<double>(replay->solve_ns));
  }
  return pass;
}

void EngineSetupOnly(Run& run, std::vector<double>& setup_s) {
  Generator gen(run.topo, run.spec.shape, run.seed);
  const Batch prefill = gen.Prefill();
  const std::uint64_t s0 = MonotonicNanos();
  engine::Engine eng(run.topo.network, EngineOptionsFor(run.spec));
  eng.SubmitBatch(prefill.arrivals, {});
  const auto snapshot = eng.CurrentSnapshot();
  setup_s.push_back(static_cast<double>(MonotonicNanos() - s0) / 1e9);
  if (!snapshot->feasible) run.Fail("prefill snapshot infeasible");
}

// --- sharded fleet ----------------------------------------------------------

shard::ShardedEngineOptions FleetOptionsFor(const WorkloadSpec& spec,
                                            const Topology& topo) {
  shard::ShardedEngineOptions options;
  options.partition.num_shards = kFleetShards;
  options.partition.method = shard::PartitionMethod::kBfs;
  options.partition.seed = kTopologySeed;
  options.partition.seeds = topo.hubs;
  options.total_budget = spec.k;
  options.engine.lambda = kLambda;
  options.engine.move_threshold = 0.0;
  options.engine.resolve_churn_fraction = 0.03;
  options.realloc_interval_epochs = 16;
  options.supervise = true;
  options.supervisor_checkpoint_interval_epochs = 8;
  options.pin_threads = true;
  return options;
}

std::string FleetRecord(const shard::FleetCheckpoint& checkpoint) {
  std::ostringstream os;
  io::EngineCheckpointWriteOptions options;
  options.include_histograms = false;
  shard::WriteFleetCheckpoint(os, checkpoint, options);
  return os.str();
}

void FleetRecovery(Run& run, PassResult& pass, shard::ShardedEngine& live,
                   std::uint64_t epoch) {
  const std::uint64_t t0 = MonotonicNanos();
  const shard::FleetCheckpoint checkpoint = live.Checkpoint();
  const std::uint64_t t1 = MonotonicNanos();
  std::ostringstream os;
  shard::WriteFleetCheckpoint(os, checkpoint);
  const std::string text = os.str();
  const std::uint64_t t2 = MonotonicNanos();
  std::istringstream is(text);
  io::Parsed<shard::FleetCheckpoint> parsed = shard::ReadFleetCheckpoint(is);
  const std::uint64_t t3 = MonotonicNanos();
  if (!parsed.ok()) {
    run.Fail("fleet checkpoint parse failed at epoch " +
             std::to_string(epoch) + ": " + parsed.error);
    return;
  }
  auto restored = std::make_unique<shard::ShardedEngine>(
      run.topo.network, FleetOptionsFor(run.spec, run.topo));
  restored->Restore(*parsed.value);
  restored->Drain();
  const std::uint64_t t4 = MonotonicNanos();
  RecordRecovery(run, pass, epoch, {t0, t1, t2, t3, t4}, text.size(),
                 checkpoint.flows.size());

  const std::uint64_t c0 = MonotonicNanos();
  if (FleetRecord(restored->Checkpoint()) != FleetRecord(checkpoint)) {
    run.Fail("restored fleet differs from the live one at epoch " +
             std::to_string(epoch));
  }
  restored.reset();
  run.spans.Add(Layer::kCheck, epoch, c0, MonotonicNanos());
}

/// Union snapshot checks: independent b(P) and feasibility, |P| <= K, and
/// exactly-once ownership (shard flow counts sum to the client's count).
bool CheckFleetSnapshot(Run& run, const shard::FleetSnapshot& snapshot,
                        const LiveSet& live, const PathCache& paths,
                        std::uint64_t epoch, Evaluation* out) {
  const Evaluation eval = Evaluate(live, paths, snapshot.deployment);
  std::size_t owned = 0;
  for (const shard::ShardStatus& status : snapshot.shards) {
    owned += status.active_flows;
  }
  const bool ok = snapshot.feasible && eval.feasible &&
                  SameBandwidth(snapshot.bandwidth, eval.bandwidth) &&
                  snapshot.deployment.size() <= run.spec.k &&
                  owned == live.total();
  if (!ok) {
    run.Fail("fleet epoch " + std::to_string(epoch) + ": snapshot b=" +
             std::to_string(snapshot.bandwidth) + " independent b=" +
             std::to_string(eval.bandwidth) + " owned=" +
             std::to_string(owned) + " live=" + std::to_string(live.total()));
  }
  if (out != nullptr) *out = eval;
  return ok;
}

Digest FleetDigest(shard::ShardedEngine& fleet,
                   const shard::FleetSnapshot& snapshot) {
  Digest digest;
  const shard::FleetStats& s = fleet.stats();
  digest.counters = {s.epochs,          s.commands_routed,
                     s.batches_skipped, s.cross_shard_flows,
                     s.realloc_rounds,  s.realloc_adoptions,
                     s.budget_moves,    s.shed_batches,
                     s.supervisor_checkpoints};
  digest.deployment = snapshot.deployment.vertices();
  digest.bandwidth = snapshot.bandwidth;
  const shard::FleetMemoryStats mem = fleet.MemoryUsage();
  digest.index_bytes = mem.index_bytes;
  digest.active_flows = mem.active_flows;
  return digest;
}

std::vector<std::int64_t> ToHandles(const std::vector<shard::FlowId64>& ids) {
  return {ids.begin(), ids.end()};
}

PassResult FleetPass(Run& run, bool traced) {
  const WorkloadSpec& spec = run.spec;
  PassResult pass;
  run.spans.enabled = traced;
  Generator gen(run.topo, spec.shape, run.seed);
  LiveSet live(gen.num_pools());
  const Batch prefill = gen.Prefill();

  const std::uint64_t s0 = MonotonicNanos();
  auto fleet = std::make_unique<shard::ShardedEngine>(
      run.topo.network, FleetOptionsFor(spec, run.topo));
  const shard::ShardedEngine::BatchResult first =
      fleet->SubmitBatch(prefill.arrivals, {});
  fleet->Drain();
  pass.setup_s = static_cast<double>(MonotonicNanos() - s0) / 1e9;
  live.Add(prefill, ToHandles(first.flow_ids));
  const Bandwidth unprocessed =
      Evaluate(live, gen.paths(), core::Deployment(kVertices)).bandwidth;
  const shard::FleetStats stats0 = fleet->stats();

  std::vector<double> route_us, drain_ms, snapshot_ms;
  std::uint64_t arrivals = 0;
  std::uint64_t shed = stats0.shed_batches;
  Batch batch;
  pass.loop_start_ns = MonotonicNanos();
  for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
    const std::uint64_t h0 = MonotonicNanos();
    batch = gen.NextEpoch(e, live.sizes());
    const std::vector<std::int64_t> handles = live.TakeDepartures(batch);
    const std::vector<shard::FlowId64> departing(handles.begin(),
                                                 handles.end());
    const std::uint64_t h1 = MonotonicNanos();
    const shard::ShardedEngine::BatchResult result =
        fleet->SubmitBatch(batch.arrivals, departing);
    const std::uint64_t h2 = MonotonicNanos();
    fleet->Drain();
    const std::uint64_t h3 = MonotonicNanos();
    live.Add(batch, ToHandles(result.flow_ids));
    const std::uint64_t h4 = MonotonicNanos();
    run.spans.Add(Layer::kHarness, e, h0, h1);
    run.spans.Add(Layer::kRoute, e, h1, h2);
    run.spans.Add(Layer::kDrain, e, h2, h3);
    run.spans.Add(Layer::kHarness, e, h3, h4);
    pass.epoch_ms.push_back(Ms(h3 - h1));
    pass.epoch_ns += h3 - h1;
    pass.harness_ns += (h1 - h0) + (h4 - h3);
    route_us.push_back(static_cast<double>(h2 - h1) / 1e3);
    drain_ms.push_back(Ms(h3 - h2));
    pass.events += batch.arrivals.size() + departing.size();
    arrivals += batch.arrivals.size();

    const std::uint64_t shed_now = fleet->stats().shed_batches;
    bool ok = shed_now == shed;
    shed = shed_now;
    if ((e + 1) % kFleetCheckEvery == 0) {
      const std::uint64_t f0 = MonotonicNanos();
      const shard::FleetSnapshot snapshot = fleet->Snapshot();
      const std::uint64_t f1 = MonotonicNanos();
      ok = CheckFleetSnapshot(run, snapshot, live, gen.paths(), e, nullptr) &&
           ok;
      run.spans.Add(Layer::kFleetSnapshot, e, f0, f1);
      run.spans.Add(Layer::kCheck, e, f1, MonotonicNanos());
      snapshot_ms.push_back(Ms(f1 - f0));
    }
    if (!ok) ++pass.epochs_failed;
  }
  pass.loop_end_ns = MonotonicNanos();
  for (std::size_t c = 0; c < kRecoveryCycles; ++c) {
    FleetRecovery(run, pass, *fleet, kEpochsPerPass);
  }

  const shard::FleetStats& stats = fleet->stats();
  const shard::FleetSnapshot snapshot = fleet->Snapshot();
  Evaluation final_eval;
  CheckFleetSnapshot(run, snapshot, live, gen.paths(), kEpochsPerPass,
                     &final_eval);
  const shard::FleetMemoryStats mem = fleet->MemoryUsage();
  pass.bandwidth_frac = Ratio(final_eval.bandwidth, unprocessed);
  pass.bytes_per_flow = Ratio(static_cast<double>(mem.index_bytes),
                              static_cast<double>(mem.active_flows));
  pass.digest = FleetDigest(*fleet, snapshot);
  if (run.peak_rss_mb == 0.0) run.peak_rss_mb = PeakRssMb();

  const double epochs = static_cast<double>(kEpochsPerPass);
  const double shards = static_cast<double>(fleet->num_shards());
  std::size_t max_owned = 0;
  for (const shard::ShardStatus& status : snapshot.shards) {
    max_owned = std::max(max_owned, status.active_flows);
  }
  auto& m = pass.layer;
  m["index.bytes_per_flow"] = pass.bytes_per_flow;
  m["shard.route_us_per_epoch"] = Median(route_us);
  m["shard.drain_ms_per_epoch"] = Median(drain_ms);
  m["shard.commands_per_epoch"] =
      static_cast<double>(stats.commands_routed - stats0.commands_routed) /
      epochs;
  m["shard.skipped_frac"] =
      static_cast<double>(stats.batches_skipped - stats0.batches_skipped) /
      (epochs * shards);
  m["shard.cross_shard_frac"] =
      Ratio(static_cast<double>(stats.cross_shard_flows),
            static_cast<double>(arrivals + prefill.arrivals.size()));
  m["shard.imbalance"] = Ratio(static_cast<double>(max_owned) * shards,
                               static_cast<double>(live.total()));
  m["shard.realloc_rounds"] =
      static_cast<double>(stats.realloc_rounds - stats0.realloc_rounds);
  m["shard.realloc_adoptions"] =
      static_cast<double>(stats.realloc_adoptions - stats0.realloc_adoptions);
  m["shard.supervisor_checkpoints"] = static_cast<double>(
      stats.supervisor_checkpoints - stats0.supervisor_checkpoints);
  m["shard.snapshot_ms"] = Median(snapshot_ms);
  m["shard.shed_batches"] =
      static_cast<double>(stats.shed_batches - stats0.shed_batches);
  return pass;
}

void FleetSetupOnly(Run& run, std::vector<double>& setup_s) {
  Generator gen(run.topo, run.spec.shape, run.seed);
  const Batch prefill = gen.Prefill();
  const std::uint64_t s0 = MonotonicNanos();
  shard::ShardedEngine fleet(run.topo.network,
                             FleetOptionsFor(run.spec, run.topo));
  fleet.SubmitBatch(prefill.arrivals, {});
  fleet.Drain();
  setup_s.push_back(static_cast<double>(MonotonicNanos() - s0) / 1e9);
}

// --- reporting --------------------------------------------------------------

/// Every per-layer metric with its unit, in report order.  Metrics a
/// workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"harness.ms_per_epoch", "ms"},
      {"index.ns_per_event", "ns"},
      {"index.delta_ops_per_event", "count"},
      {"index.path_classes", "count"},
      {"index.bytes_per_flow", "B"},
      {"index.prefill_ns_per_flow", "ns"},
      {"index.share_of_epoch", "ratio"},
      {"index.engine_hist_ratio", "ratio"},
      {"solve.ms_per_epoch", "ms"},
      {"solve.gain_reevals_per_epoch", "count"},
      {"solve.lazy_skip_frac", "ratio"},
      {"solve.ns_per_reeval", "ns"},
      {"solve.share_of_epoch", "ratio"},
      {"solve.engine_hist_ratio", "ratio"},
      {"engine.submit_ms_p50", "ms"},
      {"engine.glue_ms_per_epoch", "ms"},
      {"engine.glue_share_of_epoch", "ratio"},
      {"engine.patch_us_p50", "us"},
      {"engine.adoptions_per_epoch", "count"},
      {"engine.moves_per_epoch", "count"},
      {"engine.snapshot_read_ns", "ns"},
      {"checkpoint.recovery_ms", "ms"},
      {"checkpoint.capture_ms", "ms"},
      {"checkpoint.write_ms", "ms"},
      {"checkpoint.read_ms", "ms"},
      {"checkpoint.restore_ms", "ms"},
      {"checkpoint.bytes_per_flow", "B"},
      {"shard.route_us_per_epoch", "us"},
      {"shard.drain_ms_per_epoch", "ms"},
      {"shard.commands_per_epoch", "count"},
      {"shard.skipped_frac", "ratio"},
      {"shard.cross_shard_frac", "ratio"},
      {"shard.imbalance", "ratio"},
      {"shard.realloc_rounds", "count"},
      {"shard.realloc_adoptions", "count"},
      {"shard.supervisor_checkpoints", "count"},
      {"shard.snapshot_ms", "ms"},
      {"shard.shed_batches", "count"},
      {"core.gtp_ref_ms", "ms"},
      {"trace_overhead_frac", "ratio"},
      {"trace.span_coverage_frac", "ratio"},
  };
  return kMetrics;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << JsonNumber(m.value) << " "
              << m.unit << (m.note.empty() ? "" : "  (" + m.note + ")")
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
              << "\": {\"value\": " << JsonNumber(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Span self-check of a traced pass: the share of its epoch-loop wall time
/// covered by top-level spans.
double SpanCoverage(const SpanLog& log, const PassResult& pass) {
  std::uint64_t covered = 0;
  for (const Span& s : log.spans) {
    if (TopLevel(s.layer) && s.start_ns >= pass.loop_start_ns &&
        s.end_ns <= pass.loop_end_ns) {
      covered += s.end_ns - s.start_ns;
    }
  }
  return Ratio(static_cast<double>(covered),
               static_cast<double>(pass.loop_end_ns - pass.loop_start_ns));
}

double EventsPerSecond(const PassResult& pass) {
  return Ratio(static_cast<double>(pass.events),
               static_cast<double>(pass.epoch_ns) / 1e9);
}

int Main(int argc, char** argv) {
  ArgParser parser("tdmd_perfbench",
                   "Closed-loop serving benchmark of the tdmd engine and "
                   "sharded fleet (see README.md).");
  const auto* workload = parser.AddString(
      "workload", "", "single_dst_churn | hub_resolve | regional_fleet");
  const auto* seed = parser.AddInt("seed", 1, "input seed");
  const auto* seconds =
      parser.AddDouble("seconds", 10.0, "measured time per run");
  const auto* trace = parser.AddInt(
      "trace", 0, "1: traced run printing the per-layer ledger");
  const auto* trace_out = parser.AddString(
      "trace-out", "", "where a traced run writes its spans (Chrome JSON)");
  parser.Parse(argc, argv);
  const std::optional<WorkloadSpec> spec = FindWorkload(*workload);
  if (!spec) {
    std::cerr << "tdmd_perfbench: unknown workload '" << *workload << "'\n";
    return 2;
  }
  const bool traced = *trace != 0;
  PinClientThread();

  const std::uint64_t g0 = MonotonicNanos();
  const Topology topo = MakeTopology(kVertices, spec->hubs, kTopologySeed);
  Run run(*spec, topo, static_cast<std::uint64_t>(*seed));
  std::cout << "perfbench " << spec->name << ": seed " << run.seed << ", "
            << topo.network.num_vertices() << " vertices, "
            << topo.hubs.size() << " hub(s), " << spec->shape.flows
            << " prefill flows, " << kEpochsPerPass
            << " epochs per pass, k=" << spec->k
            << ", closed loop, 1 client thread"
            << (traced ? ", traced" : "") << "\n";

  // Untraced runs repeat passes, each followed by one set-up-only
  // repetition, while another one still fits in --seconds; a traced run
  // makes one untraced and one traced pass, so the overhead is measured
  // within one process.
  std::vector<PassResult> passes;
  std::vector<double> setup_s;
  const auto setup_only = [&] {
    if (spec->fleet) {
      FleetSetupOnly(run, setup_s);
    } else {
      EngineSetupOnly(run, setup_s);
    }
  };
  const std::uint64_t start = MonotonicNanos();
  std::uint64_t last_ns = 0;
  while (traced ? passes.size() < 2
                : passes.empty() ||
                      static_cast<double>(MonotonicNanos() - start + last_ns) /
                              1e9 <=
                          *seconds) {
    const std::uint64_t p0 = MonotonicNanos();
    const bool traced_pass = traced && passes.size() == 1;
    passes.push_back(spec->fleet ? FleetPass(run, traced_pass)
                                 : EnginePass(run, traced_pass));
    setup_s.push_back(passes.back().setup_s);
    if (!traced) setup_only();
    last_ns = MonotonicNanos() - p0;
  }
  while (!traced && setup_s.size() < kMinSetups) setup_only();
  for (std::size_t p = 1; p < passes.size(); ++p) {
    if (!(passes[p].digest == passes[0].digest)) {
      run.Fail("pass " + std::to_string(p) +
               " diverged from pass 0 on the same seed (determinism)");
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  for (const PassResult& pass : passes) {
    attempted += pass.epoch_ms.size();
    failed += pass.epochs_failed;
  }
  std::vector<Metric> metrics;
  if (!traced) {
    std::vector<double> epoch_ms;
    std::uint64_t events = 0, epoch_ns = 0;
    for (const PassResult& pass : passes) {
      epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(),
                      pass.epoch_ms.end());
      events += pass.events;
      epoch_ns += pass.epoch_ns;
    }
    std::size_t beyond = 0;
    const double p95 = Quantile(epoch_ms, 0.95, &beyond);
    const std::string n = std::to_string(epoch_ms.size());
    metrics = {
        {"setup_s", Median(setup_s), "s",
         "median of " + std::to_string(setup_s.size()) + " set-ups"},
        {"events_per_s",
         Ratio(static_cast<double>(events),
               static_cast<double>(epoch_ns) / 1e9),
         "1/s", std::to_string(events) + " events"},
        {"epoch_ms_p50", Quantile(epoch_ms, 0.5, nullptr), "ms",
         "n=" + n},
        {"epoch_ms_p95", p95, "ms",
         "n=" + n + ", " + std::to_string(beyond) + " beyond"},
        {"bandwidth_frac", passes[0].bandwidth_frac, "ratio",
         "final b(P) / b(empty)"},
        {"bytes_per_flow", passes[0].bytes_per_flow, "B", "index bytes"},
        {"peak_rss_mb", run.peak_rss_mb, "MiB", ""},
    };
    std::cout << "  failed_frac = "
              << JsonNumber(Ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted)))
              << " ratio  (" << failed << " of " << attempted
              << " epochs)\n";
  } else {
    const PassResult& plain = passes[0];
    const PassResult& pass = passes[1];
    std::map<std::string, double> values = pass.layer;
    values["harness.ms_per_epoch"] =
        Ms(pass.harness_ns) / static_cast<double>(kEpochsPerPass);
    values["checkpoint.recovery_ms"] = Median(pass.recovery_ms);
    values["checkpoint.capture_ms"] = Median(pass.capture_ms);
    values["checkpoint.write_ms"] = Median(pass.write_ms);
    values["checkpoint.read_ms"] = Median(pass.read_ms);
    values["checkpoint.restore_ms"] = Median(pass.restore_ms);
    values["checkpoint.bytes_per_flow"] =
        Median(pass.checkpoint_bytes_per_flow);
    values["trace_overhead_frac"] =
        1.0 - Ratio(EventsPerSecond(pass), EventsPerSecond(plain));
    values["trace.span_coverage_frac"] = SpanCoverage(run.spans, pass);
    for (const auto& [name, unit] : LayerMetrics()) {
      const auto it = values.find(name);
      metrics.push_back(
          {name, it == values.end() ? 0.0 : it->second, unit, ""});
    }
    if (!trace_out->empty()) run.spans.Write(*trace_out);
  }

  // Deterministic figures, for cross-run comparison by run.py --selfcheck.
  const Digest& d = passes[0].digest;
  std::cout << "  deterministic: bandwidth=" << JsonNumber(d.bandwidth)
            << " index_bytes=" << d.index_bytes
            << " active=" << d.active_flows << " boxes="
            << d.deployment.size() << " counters=";
  for (std::uint64_t c : d.counters) std::cout << c << ",";
  std::cout << "\n  per-pass events_per_s:";
  for (const PassResult& pass : passes) {
    std::cout << " " << static_cast<std::uint64_t>(EventsPerSecond(pass));
  }
  std::cout << "\n  setups_s:";
  for (double v : setup_s) std::cout << " " << v;
  std::cout << "\n  passes=" << passes.size() << " setups=" << setup_s.size()
            << " generation+passes_s="
            << JsonNumber(static_cast<double>(MonotonicNanos() - g0) / 1e9)
            << "\n";
  for (const std::string& error : run.errors) {
    std::cout << "  CHECK FAILED: " << error << "\n";
  }
  const bool correct = run.errors.empty() && failed == 0;
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tdmd::perfbench

int main(int argc, char** argv) {
  try {
    return tdmd::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "tdmd_perfbench: " << e.what() << "\n";
    return 2;
  }
}
