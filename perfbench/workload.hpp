// Workload generator of the serving benchmark.
//
// Everything the benchmark feeds the program is drawn here from one seed:
// the Ark-derived topology, its destination hubs, the prefill flows and a
// stream of churn epochs.  The generator is linear in the work it emits:
// shortest paths are cached per (src, dst) pair, so a flow costs one path
// copy instead of one BFS, and departures are drawn by geometric skipping,
// so an epoch costs O(churn) random draws instead of one per live flow.
//
// Live flows are grouped into pools.  Departures of an epoch are positions
// in one pool's live list (ascending); the caller owns the lists and maps
// positions to the tickets the program issued.  Departure draws depend
// only on the pool sizes, which are themselves a function of the trace, so
// the same seed always yields the same epochs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "graph/digraph.hpp"
#include "graph/shortest_path.hpp"
#include "traffic/flow.hpp"

namespace tdmd::perfbench {

/// Memoized graph::ShortestHopPath, one BFS per distinct (src, dst) pair.
class PathCache {
 public:
  explicit PathCache(const graph::Digraph& network);

  /// Id of the shortest-hop path src -> dst, or -1 when src == dst or dst
  /// is unreachable.
  std::int32_t PathId(VertexId src, VertexId dst);
  const graph::Path& path(std::int32_t id) const {
    return paths_[static_cast<std::size_t>(id)];
  }
  /// Distinct paths cached so far.
  std::size_t size() const { return paths_.size(); }

 private:
  static constexpr std::int32_t kUnknown = -2;

  const graph::Digraph& network_;
  /// ids_[src * |V| + dst]: path id, -1 (no path) or kUnknown.
  std::vector<std::int32_t> ids_;
  std::vector<graph::Path> paths_;
};

/// The network and its destinations.
struct Topology {
  graph::Digraph network;
  /// Farthest-point hubs, starting at vertex 0 (the paper's single
  /// destination when there is one hub).
  std::vector<VertexId> hubs;
  /// region[v] = index of the hub nearest to v (ties to the lower index).
  std::vector<std::uint32_t> region;
};

/// Ark-like general topology of `vertices` vertices with `num_hubs`
/// farthest-point hubs.
Topology MakeTopology(VertexId vertices, std::size_t num_hubs,
                      std::uint64_t seed);

struct TrafficShape {
  std::size_t flows = 100000;
  /// Arrivals per epoch as a fraction of `flows`.
  double arrival_fraction = 0.05;
  /// Per-epoch departure probability of each live flow in the epoch's pool.
  double departure_probability = 0.05;
  /// false: one pool; a flow picks a hub uniformly and a source uniformly
  /// among the other vertices.  true: one pool per hub region; a flow runs
  /// from a vertex of its region to the region's hub, and epoch e's churn
  /// stays inside region e mod |hubs|.
  bool regional = false;
};

/// One batch of generated input.
struct Batch {
  traffic::FlowSet arrivals;
  /// Path-cache id of each arrival.
  std::vector<std::int32_t> arrival_paths;
  /// Pool each arrival joins.
  std::vector<std::uint32_t> arrival_pools;
  /// Pool the departures index into.
  std::uint32_t departure_pool = 0;
  /// Ascending positions in that pool's pre-batch live list.
  std::vector<std::size_t> departures;
};

class Generator {
 public:
  Generator(const Topology& topology, const TrafficShape& shape,
            std::uint64_t seed);

  std::size_t num_pools() const;

  /// The `shape.flows` prefill flows (no departures).
  Batch Prefill();

  /// Epoch `epoch`'s churn, given the current live count of every pool.
  Batch NextEpoch(std::uint64_t epoch,
                  const std::vector<std::size_t>& pool_sizes);

  const PathCache& paths() const { return paths_; }

 private:
  void DrawFlow(std::uint32_t pool, Batch& batch);

  const Topology& topology_;
  TrafficShape shape_;
  Rng rng_;
  PathCache paths_;
  /// Source candidates per pool (every vertex but the hub for regional
  /// pools; all vertices for the single global pool).
  std::vector<std::vector<VertexId>> sources_;
};

/// Geometric-skip Bernoulli sampling: ascending positions in [0, n), each
/// included independently with probability p, in O(selected) draws.
std::vector<std::size_t> SampleBernoulli(std::size_t n, double p, Rng& rng);

}  // namespace tdmd::perfbench
