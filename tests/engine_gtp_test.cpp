#include "engine/incremental_gtp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "core/gtp.hpp"
#include "core/objective.hpp"
#include "engine/coverage_index.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

// Dyadic lambdas make every per-flow term r_f * (1 - lambda) * delta_l
// exactly representable, so gain sums are order-independent and the
// equivalence check below is exact rather than tolerance-based (the
// index's swap-erase maintenance visits flows in a different order than
// the Instance's flow-id-ordered lists).
constexpr double kLambdas[] = {0.0, 0.125, 0.25, 0.5, 0.75, 1.0};

traffic::Flow MakeFlow(const graph::Digraph& network, VertexId src,
                       VertexId dst, Rate rate) {
  traffic::Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.rate = rate;
  auto path = graph::ShortestHopPath(network, src, dst);
  EXPECT_TRUE(path.has_value());
  flow.path = std::move(*path);
  return flow;
}

traffic::FlowSet RandomGeneralFlows(const graph::Digraph& network,
                                    std::size_t count, Rng& rng) {
  traffic::FlowSet flows;
  while (flows.size() < count) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(network.num_vertices())));
    if (src == 0) continue;
    flows.push_back(MakeFlow(network, src, 0, rng.NextInt(1, 12)));
  }
  return flows;
}

/// Flows from random sources to a few random sinks.  Their shortest paths
/// fan into several destinations, so a round's unserved classes include
/// vertex-disjoint ones and the feasibility probe's packing bound (see
/// incremental_gtp.cpp) can fire at any remaining budget, not only at 0.
traffic::FlowSet RandomMultiSinkFlows(const graph::Digraph& network,
                                      const std::vector<VertexId>& sinks,
                                      std::size_t count, Rng& rng) {
  traffic::FlowSet flows;
  const auto n = static_cast<std::uint64_t>(network.num_vertices());
  while (flows.size() < count) {
    const VertexId dst = sinks[static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(sinks.size())))];
    const auto src = static_cast<VertexId>(rng.NextBounded(n));
    if (src == dst) continue;
    flows.push_back(MakeFlow(network, src, dst, rng.NextInt(1, 12)));
  }
  return flows;
}

traffic::FlowSet RandomTreeFlows(const graph::Tree& tree,
                                 std::size_t count, Rng& rng) {
  traffic::FlowSet flows;
  const std::vector<VertexId>& leaves = tree.Leaves();
  for (std::size_t i = 0; i < count; ++i) {
    const VertexId leaf = leaves[static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(leaves.size())))];
    traffic::Flow flow;
    flow.src = leaf;
    flow.dst = tree.root();
    flow.rate = rng.NextInt(1, 12);
    flow.path.vertices = tree.PathToRoot(leaf);
    flows.push_back(std::move(flow));
  }
  return flows;
}

/// The equivalence contract of the tentpole: CELF over the live index
/// must reproduce batch GTP exactly — same deployment (same order, even),
/// same b(P), same feasibility.
void ExpectEquivalent(const FlowCoverageIndex& index,
                      const core::Instance& instance, std::size_t k,
                      const char* label) {
  IncrementalGtpOptions incremental_options;
  incremental_options.max_middleboxes = k;
  const IncrementalGtpResult incremental =
      SolveIncrementalGtp(index, incremental_options);

  core::GtpOptions batch_options;
  batch_options.max_middleboxes = k;
  const core::PlacementResult batch = Gtp(instance, batch_options);

  EXPECT_FALSE(incremental.cancelled) << label;
  EXPECT_EQ(incremental.deployment.vertices(), batch.deployment.vertices())
      << label << ": greedy selection order diverged";
  EXPECT_DOUBLE_EQ(incremental.bandwidth, batch.bandwidth) << label;
  EXPECT_EQ(incremental.feasible, batch.feasible) << label;
  // Every evaluation CELF skipped is one the full scan made: priming plus
  // re-evaluations plus savings is exactly |V| plus the full-scan count.
  EXPECT_EQ(incremental.oracle_calls + incremental.reevals_saved,
            static_cast<std::size_t>(instance.num_vertices()) +
                batch.oracle_calls)
      << label;

  // The lazy mode of batch GTP shares CelfQueue with the incremental
  // solver; close the triangle.
  batch_options.lazy = true;
  const core::PlacementResult lazy = Gtp(instance, batch_options);
  EXPECT_EQ(incremental.deployment.vertices(), lazy.deployment.vertices())
      << label;
}

TEST(IncrementalGtpPropertyTest, MatchesBatchOnRandomGeneralDigraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<VertexId>(6 + trial % 25);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const std::size_t flow_count = 1 + (static_cast<std::size_t>(trial) * 7) % 40;
    const traffic::FlowSet flows = RandomGeneralFlows(network, flow_count, rng);
    const double lambda = kLambdas[trial % 6];
    const std::size_t k = static_cast<std::size_t>(trial) % 9;  // 0 = unlimited

    FlowCoverageIndex index(network, lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);
    const core::Instance instance(std::move(network), flows, lambda);
    ExpectEquivalent(index, instance, k,
                     ("general trial " + std::to_string(trial)).c_str());
  }
}

TEST(IncrementalGtpPropertyTest, MatchesBatchOnRandomTrees) {
  Rng rng(4048);
  for (int trial = 0; trial < 100; ++trial) {
    const auto n = static_cast<VertexId>(4 + trial % 21);
    const graph::Tree tree = topology::RandomTree(n, rng);
    const std::size_t flow_count = 1 + (static_cast<std::size_t>(trial) * 5) % 30;
    const traffic::FlowSet flows = RandomTreeFlows(tree, flow_count, rng);
    const double lambda = kLambdas[(trial + 3) % 6];
    const std::size_t k = static_cast<std::size_t>(trial + 1) % 7;

    FlowCoverageIndex index(tree.ToDigraph(), lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);
    const core::Instance instance(tree.ToDigraph(), flows, lambda);
    ExpectEquivalent(index, instance, k,
                     ("tree trial " + std::to_string(trial)).c_str());
  }
}

// The equivalence must survive churn: an index that absorbed arrivals and
// departures (so its visit lists are swap-erase-permuted and its slots
// recycled) still solves identically to a batch run over the survivors.
TEST(IncrementalGtpPropertyTest, MatchesBatchAfterChurn) {
  Rng rng(777);
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<VertexId>(10 + trial % 15);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const double lambda = kLambdas[trial % 6];

    FlowCoverageIndex index(network, lambda);
    std::vector<FlowTicket> tickets;
    for (const traffic::Flow& flow :
         RandomGeneralFlows(network, 30, rng)) {
      tickets.push_back(index.AddFlow(flow));
    }
    // Depart ~half, in a scattered pattern, then add a second wave.
    for (std::size_t i = 0; i < tickets.size(); i += 2) {
      ASSERT_TRUE(index.RemoveFlow(tickets[i]));
    }
    for (const traffic::Flow& flow :
         RandomGeneralFlows(network, 10, rng)) {
      index.AddFlow(flow);
    }

    const core::Instance instance = index.BuildInstance();
    ExpectEquivalent(index, instance, 1 + static_cast<std::size_t>(trial) % 6,
                     ("churn trial " + std::to_string(trial)).c_str());
  }
}

/// The engine's re-solve mode against batch GTP's feasibility_aware mode
/// (the solver class of engine_churn's from-scratch baseline): identical
/// deployment order, b(P) and feasibility, and the per-round
/// reevals_saved accounting closes against the full scan's oracle calls.
IncrementalGtpResult ExpectFeasibilityAwareEquivalent(
    const FlowCoverageIndex& index, const core::Instance& instance,
    std::size_t k, const std::string& label) {
  IncrementalGtpOptions incremental_options;
  incremental_options.max_middleboxes = k;
  incremental_options.feasibility_aware = true;
  const IncrementalGtpResult incremental =
      SolveIncrementalGtp(index, incremental_options);

  core::GtpOptions batch_options;
  batch_options.max_middleboxes = k;
  batch_options.feasibility_aware = true;
  const core::PlacementResult batch = Gtp(instance, batch_options);

  EXPECT_EQ(incremental.deployment.vertices(), batch.deployment.vertices())
      << label;
  EXPECT_DOUBLE_EQ(incremental.bandwidth, batch.bandwidth) << label;
  EXPECT_EQ(incremental.feasible, batch.feasible) << label;
  EXPECT_EQ(incremental.oracle_calls + incremental.reevals_saved,
            static_cast<std::size_t>(instance.num_vertices()) +
                batch.oracle_calls)
      << label;
  EXPECT_LE(incremental.probes_settled_by_bound,
            incremental.coverability_probes)
      << label;
  return incremental;
}

// Feasibility-aware selection while flows are unserved, CELF afterwards.
TEST(IncrementalGtpPropertyTest, FeasibilityAwareMatchesBatch) {
  Rng rng(911);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<VertexId>(8 + trial % 20);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    const traffic::FlowSet flows =
        RandomGeneralFlows(network, 5 + (static_cast<std::size_t>(trial) * 3) % 25, rng);
    const double lambda = kLambdas[trial % 6];
    const std::size_t k = 1 + static_cast<std::size_t>(trial) % 6;

    FlowCoverageIndex index(network, lambda);
    for (const traffic::Flow& flow : flows) index.AddFlow(flow);
    const core::Instance instance(std::move(network), flows, lambda);
    ExpectFeasibilityAwareEquivalent(
        index, instance, k,
        "feasibility-aware trial " + std::to_string(trial));
  }
}

// Every flow above ends at vertex 0, so a round's packing holds at most
// one class and the probe's bound can only fire at remaining budget 0.
// Several sinks give disjoint classes, and budgets just above the sink
// count put the bound right at the edge of feasibility, where an
// off-by-one in either bound flips verdicts.  Odd trials solve a churned
// index (departures scattered over recycled slots, then a second wave).
TEST(IncrementalGtpPropertyTest, FeasibilityAwareMultiSinkMatchesBatch) {
  Rng rng(1601);
  std::size_t probes = 0;
  std::size_t settled = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<VertexId>(10 + trial % 21);
    graph::Digraph network = topology::Waxman(n, 0.5, 0.4, rng);
    std::vector<VertexId> sinks;
    const std::size_t num_sinks = 2 + static_cast<std::size_t>(trial) % 5;
    while (sinks.size() < num_sinks) {
      const auto v = static_cast<VertexId>(
          rng.NextBounded(static_cast<std::uint64_t>(n)));
      if (std::find(sinks.begin(), sinks.end(), v) == sinks.end()) {
        sinks.push_back(v);
      }
    }
    const double lambda = kLambdas[trial % 6];
    const std::size_t k = num_sinks + static_cast<std::size_t>(trial / 5) % 4;
    const std::size_t flow_count =
        8 + (static_cast<std::size_t>(trial) * 7) % 33;

    FlowCoverageIndex index(network, lambda);
    std::vector<FlowTicket> tickets;
    for (const traffic::Flow& flow :
         RandomMultiSinkFlows(network, sinks, flow_count, rng)) {
      tickets.push_back(index.AddFlow(flow));
    }
    if (trial % 2 == 1) {
      for (std::size_t i = 0; i < tickets.size(); i += 3) {
        ASSERT_TRUE(index.RemoveFlow(tickets[i]));
      }
      for (const traffic::Flow& flow :
           RandomMultiSinkFlows(network, sinks, flow_count / 2, rng)) {
        index.AddFlow(flow);
      }
    }
    const core::Instance instance = index.BuildInstance();
    const IncrementalGtpResult incremental = ExpectFeasibilityAwareEquivalent(
        index, instance, k, "multi-sink trial " + std::to_string(trial));
    probes += incremental.coverability_probes;
    settled += incremental.probes_settled_by_bound;
  }
  // The bound must actually settle rejects on these instances, or the
  // equivalence above would not exercise it.
  EXPECT_GT(settled, 0u);
  EXPECT_GT(probes, settled);
}

TEST(IncrementalGtpTest, EmptyIndexIsTriviallyFeasible) {
  Rng rng(5);
  FlowCoverageIndex index(topology::Waxman(8, 0.5, 0.4, rng), 0.5);
  const IncrementalGtpResult result = SolveIncrementalGtp(index, {});
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.deployment.empty());
  EXPECT_DOUBLE_EQ(result.bandwidth, 0.0);
}

TEST(IncrementalGtpTest, LazyHeapSavesReevaluations) {
  Rng rng(6);
  graph::Digraph network = topology::Waxman(40, 0.6, 0.5, rng);
  FlowCoverageIndex index(network, 0.5);
  for (const traffic::Flow& flow : RandomGeneralFlows(network, 120, rng)) {
    index.AddFlow(flow);
  }
  IncrementalGtpOptions options;
  options.max_middleboxes = 10;
  const IncrementalGtpResult result = SolveIncrementalGtp(index, options);
  EXPECT_GT(result.reevals_saved, 0u);
  // CELF's total work (prime + revalidations) must undercut the plain
  // full-scan count on an instance this size.
  core::GtpOptions batch_options;
  batch_options.max_middleboxes = 10;
  const core::PlacementResult plain =
      Gtp(index.BuildInstance(), batch_options);
  EXPECT_LT(result.oracle_calls, plain.oracle_calls);
}

TEST(IncrementalGtpTest, CancellationStopsTheSolve) {
  Rng rng(7);
  graph::Digraph network = topology::Waxman(30, 0.6, 0.5, rng);
  FlowCoverageIndex index(network, 0.5);
  for (const traffic::Flow& flow : RandomGeneralFlows(network, 50, rng)) {
    index.AddFlow(flow);
  }
  std::atomic<bool> cancel{true};  // cancelled before the first round
  IncrementalGtpOptions options;
  options.max_middleboxes = 8;
  options.cancel = &cancel;
  const IncrementalGtpResult result = SolveIncrementalGtp(index, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.deployment.empty());
}

}  // namespace
}  // namespace tdmd::engine
