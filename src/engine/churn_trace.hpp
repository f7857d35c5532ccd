// Pre-drawn churn traces: one seeded RNG path for every consumer.
//
// The engine-vs-baseline comparisons (bench/engine_churn and
// `tdmd_cli serve-trace`) are only meaningful if both sides replay the
// *same* arrival/departure sequence.  Drawing churn inline is fragile —
// any difference in RNG consumption order between two code paths silently
// diverges the workloads — so the trace is drawn once up front, from a
// single seed, and then replayed verbatim.
//
// Departures name flows by *stable arrival ordinal*: ordinal i is the i-th
// flow the trace has admitted, where ordinals 0..initial_active-1 are the
// prefill (or restored) flows in order and each epoch's arrivals take the
// next ordinals.  A replayer therefore keeps one append-only id table —
// the prefill's ids, then every epoch's arrival ids — and DepartingIds()
// reads an epoch's departures from it in O(churn), with no per-departure
// erase over the live set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "graph/shortest_path.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

/// Churn generator for benches/tests: each epoch draws `arrival_count`
/// fresh flows (shortest paths to `destination`) and departs each
/// existing flow with probability `departure_probability`.
struct ChurnModel {
  std::size_t arrival_count = 5;
  double departure_probability = 0.15;
  VertexId destination = 0;
  Rate max_rate = 12;
};

/// Shortest-hop paths memoised per source.  The churn generators fix the
/// destination per source (the model's destination, or the source's own
/// hub), so one BFS per source replaces one per drawn flow.
class SourcePathMemo {
 public:
  explicit SourcePathMemo(const graph::Digraph& network);

  /// graph::ShortestHopPath(network, src, dst), or an empty path when
  /// `dst` is unreachable.  Every call for one `src` must pass the same
  /// `dst`.
  const graph::Path& Get(VertexId src, VertexId dst);

 private:
  const graph::Digraph& network_;
  std::vector<std::optional<graph::Path>> paths_;
};

/// Draws `model.arrival_count` flows with uniform sources (rejection
/// sampled: a source equal to or unable to reach the destination is
/// redrawn, up to 64 times per flow) and rates uniform in
/// [1, model.max_rate].
traffic::FlowSet DrawArrivals(const graph::Digraph& network,
                              const ChurnModel& model, Rng& rng);

/// Positions in [0, current_flows), ascending, each drawn independently
/// with probability `model.departure_probability`.
std::vector<std::size_t> DrawDepartures(std::size_t current_flows,
                                        const ChurnModel& model, Rng& rng);

struct ChurnEpoch {
  traffic::FlowSet arrivals;
  /// Arrival ordinals of the flows departing this epoch, strictly
  /// ascending.  Each names a flow admitted before this epoch's arrivals
  /// and still live.
  std::vector<std::size_t> departures;
};

/// The ids of `epoch`'s departing flows, in departure order.  `ids` is the
/// replayer's append-only id table indexed by arrival ordinal.
template <typename Id>
std::vector<Id> DepartingIds(const ChurnEpoch& epoch,
                             const std::vector<Id>& ids) {
  std::vector<Id> departing;
  departing.reserve(epoch.departures.size());
  for (std::size_t ordinal : epoch.departures) {
    TDMD_CHECK_MSG(ordinal < ids.size(),
                   "departure ordinal " << ordinal << " not yet issued ("
                                        << ids.size() << " ids)");
    departing.push_back(ids[ordinal]);
  }
  return departing;
}

struct ChurnTrace {
  std::vector<ChurnEpoch> epochs;

  /// Active-flow count after replaying the whole trace from
  /// `initial_active` flows.
  std::size_t FinalActiveCount(std::size_t initial_active) const;
};

/// Draws `epochs` epochs of churn from `rng`, assuming `initial_active`
/// flows are live before the first epoch.  Per epoch the draw order is
/// arrivals first, then departures over the pre-arrival live list in
/// arrival order, so existing seeds keep their meaning; the drawn
/// positions are converted to arrival ordinals as they are drawn.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, Rng& rng);

/// Convenience overload seeding a fresh Rng.
ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, std::uint64_t seed);

}  // namespace tdmd::engine
