// Shared fixtures: the paper's worked example (Fig. 5) and random
// instance builders used by property tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/instance.hpp"
#include "engine/churn_trace.hpp"
#include "graph/tree.hpp"
#include "topology/generators.hpp"
#include "traffic/flow.hpp"
#include "traffic/generator.hpp"

namespace tdmd::test {

// Paper Fig. 5 tree, 0-based ids matching the paper's v1..v8 as 0..7:
//   v1(0) root; children v2(1), v3(2); v2's children v4(3), v5(4);
//   v3's child v6(5); v6's children v7(6), v8(7).
// Flows: f1 @ v4 rate 2, f4 @ v5 rate 1, f3 @ v7 rate 5, f2 @ v8 rate 1.
// lambda = 0.5.
inline constexpr VertexId kV1 = 0, kV2 = 1, kV3 = 2, kV4 = 3, kV5 = 4,
                          kV6 = 5, kV7 = 6, kV8 = 7;

inline graph::Tree PaperTree() {
  return graph::Tree(std::vector<VertexId>{
      kInvalidVertex, kV1, kV1, kV2, kV2, kV3, kV6, kV6});
}

inline traffic::FlowSet PaperFlows(const graph::Tree& tree) {
  auto make_flow = [&](VertexId src, Rate rate) {
    traffic::Flow f;
    f.src = src;
    f.dst = tree.root();
    f.rate = rate;
    f.path.vertices = tree.PathToRoot(src);
    return f;
  };
  return {make_flow(kV4, 2), make_flow(kV5, 1), make_flow(kV7, 5),
          make_flow(kV8, 1)};
}

inline core::Instance PaperInstance() {
  const graph::Tree tree = PaperTree();
  return core::MakeTreeInstance(tree, PaperFlows(tree), /*lambda=*/0.5);
}

/// Random tree instance for property tests: bounded-branching tree with
/// `size` vertices, flows on every leaf plus extras, small integer rates
/// so brute force and the DP stay fast.
struct RandomTreeCase {
  graph::Tree tree;
  core::Instance instance;
};

inline RandomTreeCase MakeRandomTreeCase(VertexId size, double lambda,
                                         Rng& rng) {
  graph::Tree tree = topology::RandomBoundedTree(size, 3, rng);
  traffic::FlowSet flows;
  for (VertexId leaf : tree.Leaves()) {
    if (!rng.NextBool(0.8)) continue;  // some leaves stay silent
    traffic::Flow f;
    f.src = leaf;
    f.dst = tree.root();
    f.rate = rng.NextInt(1, 6);
    f.path.vertices = tree.PathToRoot(leaf);
    flows.push_back(std::move(f));
  }
  if (flows.empty()) {
    traffic::Flow f;
    f.src = tree.Leaves().front();
    f.dst = tree.root();
    f.rate = 1;
    f.path.vertices = tree.PathToRoot(f.src);
    flows.push_back(std::move(f));
  }
  core::Instance instance = core::MakeTreeInstance(tree, flows, lambda);
  return RandomTreeCase{std::move(tree), std::move(instance)};
}

/// Random general-topology instance: Waxman graph, flows to vertex 0.
inline core::Instance MakeRandomGeneralCase(VertexId size, double lambda,
                                            std::size_t num_flows,
                                            Rng& rng) {
  graph::Digraph g = topology::Waxman(size, 0.6, 0.5, rng);
  traffic::FlowSet flows;
  while (flows.size() < num_flows) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(size - 1)) + 1);
    auto path = graph::ShortestHopPath(g, src, 0);
    if (!path.has_value() || path->NumEdges() == 0) continue;
    traffic::Flow f;
    f.src = src;
    f.dst = 0;
    f.rate = rng.NextInt(1, 8);
    f.path = std::move(*path);
    flows.push_back(std::move(f));
  }
  return core::Instance(std::move(g), std::move(flows), lambda);
}

/// The ids still live after replaying the first `epochs` epochs of
/// `trace` (all of them by default): the append-only id table `ids`
/// (indexed by arrival ordinal) without the departed ordinals, in arrival
/// order.
template <typename Id>
std::vector<Id> LiveIds(const engine::ChurnTrace& trace,
                        const std::vector<Id>& ids,
                        std::size_t epochs = SIZE_MAX) {
  std::vector<bool> departed(ids.size(), false);
  for (std::size_t e = 0; e < std::min(epochs, trace.epochs.size()); ++e) {
    for (std::size_t ordinal : trace.epochs[e].departures) {
      departed.at(ordinal) = true;
    }
  }
  std::vector<Id> live;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!departed[i]) live.push_back(ids[i]);
  }
  return live;
}

}  // namespace tdmd::test
