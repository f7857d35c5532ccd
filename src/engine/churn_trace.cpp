#include "engine/churn_trace.hpp"

#include <numeric>

namespace tdmd::engine {

SourcePathMemo::SourcePathMemo(const graph::Digraph& network)
    : network_(network),
      paths_(static_cast<std::size_t>(network.num_vertices())) {}

const graph::Path& SourcePathMemo::Get(VertexId src, VertexId dst) {
  std::optional<graph::Path>& path = paths_[static_cast<std::size_t>(src)];
  if (!path.has_value()) {
    path = graph::ShortestHopPath(network_, src, dst).value_or(graph::Path{});
  }
  TDMD_DCHECK(path->empty() || path->vertices.back() == dst);
  return *path;
}

traffic::FlowSet DrawArrivals(const graph::Digraph& network,
                              const ChurnModel& model, Rng& rng) {
  SourcePathMemo paths(network);
  traffic::FlowSet arrivals;
  arrivals.reserve(model.arrival_count);
  for (std::size_t i = 0; i < model.arrival_count; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto src = static_cast<VertexId>(rng.NextBounded(
          static_cast<std::uint64_t>(network.num_vertices())));
      if (src == model.destination) continue;
      const graph::Path& path = paths.Get(src, model.destination);
      if (path.NumEdges() == 0) continue;
      traffic::Flow flow;
      flow.src = src;
      flow.dst = model.destination;
      flow.rate = rng.NextInt(1, model.max_rate);
      flow.path = path;
      arrivals.push_back(std::move(flow));
      break;
    }
  }
  return arrivals;
}

std::vector<std::size_t> DrawDepartures(std::size_t current_flows,
                                        const ChurnModel& model, Rng& rng) {
  std::vector<std::size_t> departures;
  for (std::size_t i = 0; i < current_flows; ++i) {
    if (rng.NextBool(model.departure_probability)) {
      departures.push_back(i);
    }
  }
  return departures;
}

std::size_t ChurnTrace::FinalActiveCount(std::size_t initial_active) const {
  std::size_t active = initial_active;
  for (const ChurnEpoch& epoch : epochs) {
    active -= epoch.departures.size();
    active += epoch.arrivals.size();
  }
  return active;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, Rng& rng) {
  ChurnTrace trace;
  trace.epochs.reserve(epochs);
  // Ordinals of the live flows in arrival order: position p of a draw is
  // live[p], and ascending positions map to ascending ordinals.
  std::vector<std::size_t> live(initial_active);
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::size_t issued = initial_active;
  for (std::size_t e = 0; e < epochs; ++e) {
    ChurnEpoch epoch;
    epoch.arrivals = DrawArrivals(network, model, rng);
    const std::vector<std::size_t> positions =
        DrawDepartures(live.size(), model, rng);
    epoch.departures.reserve(positions.size());
    std::size_t kept = 0;
    std::size_t next = 0;
    for (std::size_t p = 0; p < live.size(); ++p) {
      if (next < positions.size() && positions[next] == p) {
        epoch.departures.push_back(live[p]);
        ++next;
      } else {
        live[kept++] = live[p];
      }
    }
    live.resize(kept);
    for (std::size_t a = 0; a < epoch.arrivals.size(); ++a) {
      live.push_back(issued++);
    }
    trace.epochs.push_back(std::move(epoch));
  }
  return trace;
}

ChurnTrace BuildChurnTrace(const graph::Digraph& network,
                           const ChurnModel& model, std::size_t epochs,
                           std::size_t initial_active, std::uint64_t seed) {
  Rng rng(seed);
  return BuildChurnTrace(network, model, epochs, initial_active, rng);
}

}  // namespace tdmd::engine
