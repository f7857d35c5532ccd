#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "graph/traversal.hpp"
#include "topology/ark.hpp"

namespace tdmd::perfbench {

/// Flow rates are uniform in [1, kMaxRate], as in core::ChurnModel.
constexpr Rate kMaxRate = 12;

PathCache::PathCache(const graph::Digraph& network)
    : network_(network),
      ids_(static_cast<std::size_t>(network.num_vertices()) *
               static_cast<std::size_t>(network.num_vertices()),
           kUnknown) {}

std::int32_t PathCache::PathId(VertexId src, VertexId dst) {
  std::int32_t& id =
      ids_[static_cast<std::size_t>(src) *
               static_cast<std::size_t>(network_.num_vertices()) +
           static_cast<std::size_t>(dst)];
  if (id != kUnknown) return id;
  std::optional<graph::Path> path =
      src == dst ? std::nullopt : graph::ShortestHopPath(network_, src, dst);
  if (!path.has_value() || path->NumEdges() == 0) {
    id = -1;
  } else {
    id = static_cast<std::int32_t>(paths_.size());
    paths_.push_back(std::move(*path));
  }
  return id;
}

Topology MakeTopology(VertexId vertices, std::size_t num_hubs,
                      std::uint64_t seed) {
  Rng rng(seed);
  topology::ArkParams ark_params;
  ark_params.num_monitors = std::max<VertexId>(3 * vertices, 90);
  const topology::ArkTopology ark = topology::GenerateArk(ark_params, rng);

  Topology topo;
  topo.network = topology::ExtractGeneralSubgraph(ark, vertices, rng);
  const auto n = static_cast<std::size_t>(topo.network.num_vertices());
  std::vector<std::int32_t> nearest(n, -1);
  topo.region.assign(n, 0);
  const auto absorb = [&](VertexId hub, std::uint32_t index) {
    const graph::BfsResult bfs = graph::BreadthFirst(topo.network, hub);
    for (std::size_t v = 0; v < n; ++v) {
      if (bfs.dist[v] >= 0 && (nearest[v] < 0 || bfs.dist[v] < nearest[v])) {
        nearest[v] = bfs.dist[v];
        topo.region[v] = index;
      }
    }
  };
  topo.hubs.push_back(0);
  absorb(0, 0);
  while (topo.hubs.size() < num_hubs) {
    std::size_t best = 0;
    for (std::size_t v = 1; v < n; ++v) {
      if (nearest[v] > nearest[best]) best = v;
    }
    if (nearest[best] <= 0) {
      throw std::runtime_error("topology has fewer vertices than hubs");
    }
    topo.hubs.push_back(static_cast<VertexId>(best));
    absorb(static_cast<VertexId>(best),
           static_cast<std::uint32_t>(topo.hubs.size() - 1));
  }
  return topo;
}

std::vector<std::size_t> SampleBernoulli(std::size_t n, double p, Rng& rng) {
  std::vector<std::size_t> picked;
  if (n == 0 || p <= 0.0) return picked;
  if (p >= 1.0) {
    picked.resize(n);
    for (std::size_t i = 0; i < n; ++i) picked[i] = i;
    return picked;
  }
  const double log_q = std::log1p(-p);
  std::size_t pos = 0;
  while (true) {
    // Failures before the next success of a Bernoulli(p) sequence.
    const double skip = std::floor(std::log1p(-rng.NextDouble()) / log_q);
    if (skip >= static_cast<double>(n - pos)) break;
    pos += static_cast<std::size_t>(skip);
    picked.push_back(pos);
    if (++pos >= n) break;
  }
  return picked;
}

Generator::Generator(const Topology& topology, const TrafficShape& shape,
                     std::uint64_t seed)
    : topology_(topology), shape_(shape), rng_(seed),
      paths_(topology.network) {
  const auto n = static_cast<std::size_t>(topology.network.num_vertices());
  if (!shape_.regional) {
    sources_.resize(1);
    for (std::size_t v = 0; v < n; ++v) {
      sources_[0].push_back(static_cast<VertexId>(v));
    }
    return;
  }
  sources_.resize(topology.hubs.size());
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t r = topology.region[v];
    if (topology.hubs[r] != static_cast<VertexId>(v)) {
      sources_[r].push_back(static_cast<VertexId>(v));
    }
  }
  for (const auto& region : sources_) {
    if (region.empty()) throw std::runtime_error("empty hub region");
  }
}

std::size_t Generator::num_pools() const { return sources_.size(); }

void Generator::DrawFlow(std::uint32_t pool, Batch& batch) {
  const std::vector<VertexId>& sources = sources_[pool];
  const VertexId dst =
      shape_.regional
          ? topology_.hubs[pool]
          : topology_.hubs[rng_.NextBounded(topology_.hubs.size())];
  for (int attempt = 0; attempt < 1024; ++attempt) {
    const VertexId src = sources[rng_.NextBounded(sources.size())];
    const std::int32_t id = paths_.PathId(src, dst);
    if (id < 0) continue;
    traffic::Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.rate = rng_.NextInt(1, kMaxRate);
    flow.path = paths_.path(id);
    batch.arrivals.push_back(std::move(flow));
    batch.arrival_paths.push_back(id);
    batch.arrival_pools.push_back(pool);
    return;
  }
  throw std::runtime_error("no connectable source for a hub");
}

Batch Generator::Prefill() {
  Batch batch;
  batch.arrivals.reserve(shape_.flows);
  for (std::size_t i = 0; i < shape_.flows; ++i) {
    const auto pool = static_cast<std::uint32_t>(
        shape_.regional ? rng_.NextBounded(sources_.size()) : 0);
    DrawFlow(pool, batch);
  }
  return batch;
}

Batch Generator::NextEpoch(std::uint64_t epoch,
                           const std::vector<std::size_t>& pool_sizes) {
  Batch batch;
  batch.departure_pool =
      static_cast<std::uint32_t>(epoch % sources_.size());
  batch.departures =
      SampleBernoulli(pool_sizes[batch.departure_pool],
                      shape_.departure_probability, rng_);
  const auto arrivals = static_cast<std::size_t>(std::llround(
      static_cast<double>(shape_.flows) * shape_.arrival_fraction /
      static_cast<double>(sources_.size())));
  batch.arrivals.reserve(arrivals);
  for (std::size_t i = 0; i < arrivals; ++i) {
    DrawFlow(batch.departure_pool, batch);
  }
  return batch;
}

}  // namespace tdmd::perfbench
