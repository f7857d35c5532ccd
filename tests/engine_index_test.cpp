#include "engine/coverage_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "engine/churn_trace.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed, VertexId n = 20) {
  Rng rng(seed);
  return topology::Waxman(n, 0.5, 0.4, rng);
}

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

/// Canonical content of an index: per vertex, the sorted multiset of
/// (src, dst, rate, path_index) over its visits — insensitive to the
/// swap-erase ordering the incremental maintenance produces.
using VertexVisits =
    std::vector<std::vector<std::tuple<VertexId, VertexId, Rate,
                                       std::int32_t>>>;

VertexVisits Canonicalize(const FlowCoverageIndex& index) {
  VertexVisits result(static_cast<std::size_t>(index.num_vertices()));
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    for (const FlowCoverageIndex::Visit& visit : index.FlowsThrough(v)) {
      const traffic::Flow& flow = index.FlowAt(visit.slot);
      result[static_cast<std::size_t>(v)].emplace_back(
          flow.src, flow.dst, flow.rate, visit.path_index);
    }
    std::sort(result[static_cast<std::size_t>(v)].begin(),
              result[static_cast<std::size_t>(v)].end());
  }
  return result;
}

/// From-scratch rebuild: a fresh index fed only the active flows.
FlowCoverageIndex Rebuild(const FlowCoverageIndex& index) {
  FlowCoverageIndex fresh(index.network(), index.lambda());
  for (FlowTicket ticket : index.ActiveTickets()) {
    fresh.AddFlow(*index.Find(ticket));
  }
  return fresh;
}

TEST(FlowCoverageIndexTest, AddIndexesEveryPathVertex) {
  graph::Digraph network = TestNetwork(1);
  FlowCoverageIndex index(network, 0.5);
  const traffic::Flow flow = MakeFlow(network, 7, 0, 3);
  const FlowTicket ticket = index.AddFlow(flow);
  ASSERT_NE(ticket, kInvalidTicket);
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_DOUBLE_EQ(index.unprocessed_bandwidth(),
                   3.0 * static_cast<double>(flow.PathEdges()));
  for (std::size_t i = 0; i < flow.path.vertices.size(); ++i) {
    const auto& visits = index.FlowsThrough(flow.path.vertices[i]);
    ASSERT_EQ(visits.size(), 1u);
    EXPECT_EQ(visits[0].path_index, static_cast<std::int32_t>(i));
  }
}

TEST(FlowCoverageIndexTest, RemoveIsExactInverse) {
  graph::Digraph network = TestNetwork(2);
  FlowCoverageIndex index(network, 0.5);
  const FlowTicket keep = index.AddFlow(MakeFlow(network, 5, 0, 2));
  const VertexVisits before = Canonicalize(index);
  const Bandwidth bandwidth_before = index.unprocessed_bandwidth();

  const FlowTicket transient = index.AddFlow(MakeFlow(network, 9, 0, 4));
  EXPECT_EQ(index.active_flows(), 2u);
  EXPECT_TRUE(index.RemoveFlow(transient));
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_EQ(Canonicalize(index), before);
  EXPECT_DOUBLE_EQ(index.unprocessed_bandwidth(), bandwidth_before);
  EXPECT_NE(index.Find(keep), nullptr);
}

TEST(FlowCoverageIndexTest, StaleTicketsAreRejected) {
  graph::Digraph network = TestNetwork(3);
  FlowCoverageIndex index(network, 0.5);
  const FlowTicket ticket = index.AddFlow(MakeFlow(network, 4, 0, 1));
  EXPECT_TRUE(index.RemoveFlow(ticket));
  // Double-remove, invalid and recycled-slot tickets must all be no-ops.
  EXPECT_FALSE(index.RemoveFlow(ticket));
  EXPECT_FALSE(index.RemoveFlow(kInvalidTicket));
  EXPECT_EQ(index.Find(ticket), nullptr);

  const FlowTicket recycled = index.AddFlow(MakeFlow(network, 6, 0, 2));
  EXPECT_NE(recycled, ticket);  // generation bumped
  EXPECT_FALSE(index.RemoveFlow(ticket));
  EXPECT_EQ(index.active_flows(), 1u);
  EXPECT_NE(index.Find(recycled), nullptr);
}

TEST(FlowCoverageIndexTest, SlotsAreRecycled) {
  graph::Digraph network = TestNetwork(4);
  FlowCoverageIndex index(network, 0.5);
  std::vector<FlowTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(index.AddFlow(MakeFlow(network, 10, 0, 1)));
  }
  const std::size_t high_water = index.num_slots();
  for (FlowTicket t : tickets) EXPECT_TRUE(index.RemoveFlow(t));
  for (int round = 0; round < 4; ++round) {
    std::vector<FlowTicket> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(index.AddFlow(MakeFlow(network, 10, 0, 1)));
    }
    for (FlowTicket t : batch) EXPECT_TRUE(index.RemoveFlow(t));
  }
  EXPECT_EQ(index.num_slots(), high_water);  // no unbounded growth
  EXPECT_EQ(index.active_flows(), 0u);
}

TEST(FlowCoverageIndexTest, DeltaOpsCountVisitEntries) {
  graph::Digraph network = TestNetwork(5);
  FlowCoverageIndex index(network, 0.5);
  const traffic::Flow flow = MakeFlow(network, 11, 0, 2);
  const std::size_t path_vertices = flow.path.vertices.size();
  const FlowTicket ticket = index.AddFlow(flow);
  EXPECT_EQ(index.stats().delta_ops, path_vertices);
  EXPECT_TRUE(index.RemoveFlow(ticket));
  EXPECT_EQ(index.stats().delta_ops, 2 * path_vertices);
  EXPECT_EQ(index.stats().arrivals, 1u);
  EXPECT_EQ(index.stats().departures, 1u);
}

TEST(FlowCoverageIndexTest, BuildInstanceMatchesActiveFlows) {
  graph::Digraph network = TestNetwork(6);
  FlowCoverageIndex index(network, 0.25);
  index.AddFlow(MakeFlow(network, 3, 0, 2));
  const FlowTicket doomed = index.AddFlow(MakeFlow(network, 8, 0, 5));
  index.AddFlow(MakeFlow(network, 12, 0, 1));
  index.RemoveFlow(doomed);

  const core::Instance instance = index.BuildInstance();
  EXPECT_EQ(instance.num_flows(), 2);
  EXPECT_DOUBLE_EQ(instance.UnprocessedBandwidth(),
                   index.unprocessed_bandwidth());
  EXPECT_DOUBLE_EQ(instance.lambda(), index.lambda());
  // The reverse indices agree vertex by vertex (as multisets).
  FlowCoverageIndex from_instance(network, index.lambda());
  for (FlowId f = 0; f < instance.num_flows(); ++f) {
    from_instance.AddFlow(instance.flow(f));
  }
  EXPECT_EQ(Canonicalize(from_instance), Canonicalize(index));
}

// The ISSUE's churn soak: after 50 arrival/departure epochs the
// incrementally maintained index must equal a from-scratch rebuild.
TEST(FlowCoverageIndexSoakTest, FiftyEpochsMatchRebuild) {
  graph::Digraph network = TestNetwork(7, 24);
  FlowCoverageIndex index(network, 0.37);  // non-dyadic lambda on purpose
  ChurnModel churn;
  churn.arrival_count = 12;
  churn.departure_probability = 0.3;
  Rng rng(99);
  const ChurnTrace trace = BuildChurnTrace(network, churn, 50, 0, rng);

  std::vector<FlowTicket> tickets;
  for (const ChurnEpoch& epoch : trace.epochs) {
    // Departures are removed latest-first.
    const std::vector<FlowTicket> departing = DepartingIds(epoch, tickets);
    for (auto it = departing.rbegin(); it != departing.rend(); ++it) {
      ASSERT_TRUE(index.RemoveFlow(*it));
    }
    for (const traffic::Flow& flow : epoch.arrivals) {
      tickets.push_back(index.AddFlow(flow));
    }
  }
  const std::vector<FlowTicket> active = test::LiveIds(trace, tickets);

  ASSERT_EQ(index.active_flows(), active.size());
  ASSERT_EQ(active.size(), trace.FinalActiveCount(0));
  const FlowCoverageIndex rebuilt = Rebuild(index);
  EXPECT_EQ(Canonicalize(index), Canonicalize(rebuilt));
  EXPECT_NEAR(index.unprocessed_bandwidth(),
              rebuilt.unprocessed_bandwidth(), 1e-9);
  EXPECT_GT(index.stats().delta_ops, 0u);
}

}  // namespace
}  // namespace tdmd::engine
