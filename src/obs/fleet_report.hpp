#pragma once

// Per-batch causal reconstruction of a fleet Chrome trace, as written by
// serve-trace --shards=N --trace-out (DESIGN.md Section 15).  Every event a
// fleet batch touches carries its batch id in args, so BuildFleetReport can
// rebuild each batch's submit -> dequeue -> patch -> adopt critical path
// from the flat event list: the straggler shard is the one whose adoption
// lands last, the dominant stage is the longest leg of that shard's chain,
// and the queue-dwell share says how much of the end-to-end latency was
// spent waiting in MPSC queues rather than solving.  A fold over the
// events of ReadChromeTrace (obs/trace_report.hpp), the reader
// trace-report and quality-report share.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tdmd::obs {

/// Per-shard attribution over the connected batches.
struct FleetShardRow {
  std::uint64_t shard = 0;
  /// Batches whose chain touched this shard (one queue-dwell span each).
  std::uint64_t batches = 0;
  /// Batches whose critical path ended on this shard (last adoption).
  std::uint64_t stragglers = 0;
  /// Summed queue dwell across this shard's chains.
  double dwell_us = 0.0;
};

struct FleetReport {
  bool ok = false;
  std::string error;
  std::size_t num_events = 0;

  /// Distinct batch ids seen on fleet-submit spans.
  std::uint64_t batches = 0;
  /// Batches reconstructing into one connected chain: a fleet-submit
  /// span, at least one shard with queue-dwell + patch + batch-adopted,
  /// and no shard left dangling (a queue-dwell without an adoption).
  std::uint64_t connected = 0;
  /// Sample of disconnected batch ids (capped; see kMaxDisconnectedIds).
  std::vector<std::uint64_t> disconnected_ids;
  /// shed-batch instants (admission shed to deferred re-solve).
  std::uint64_t shed_batches = 0;
  /// shard-recovery instants (crashed shards respawned).
  std::uint64_t recoveries = 0;

  // Critical-path statistics over the connected batches.
  double e2e_p50_us = 0.0;
  double e2e_p99_us = 0.0;
  double e2e_max_us = 0.0;
  /// Straggler-shard queue dwell as a fraction of summed e2e latency.
  double dwell_share = 0.0;
  /// Dominant-stage attribution: batches whose critical path was longest
  /// in submit->dequeue (routing + queue dwell), dequeue->patch, or
  /// patch->adopt respectively.
  std::uint64_t dominant_submit_dequeue = 0;
  std::uint64_t dominant_dequeue_patch = 0;
  std::uint64_t dominant_patch_adopt = 0;

  /// Ascending by shard id.
  std::vector<FleetShardRow> shards;
};

inline constexpr std::size_t kMaxDisconnectedIds = 8;

/// Fails (ok=false, one-line diagnostic) on anything ReadChromeTrace
/// rejects, and on a trace with no fleet-submit spans (a single-engine
/// trace is rejected rather than reported as "0 batches, all fine").
FleetReport BuildFleetReport(std::istream& is);

/// Prints the connected fraction, e2e quantiles, dominant-stage split,
/// and the per-shard straggler table.
void WriteFleetReport(std::ostream& os, const FleetReport& report);

}  // namespace tdmd::obs
