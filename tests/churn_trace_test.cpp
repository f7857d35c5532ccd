#include "engine/churn_trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "graph/shortest_path.hpp"
#include "test_util.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed) {
  Rng rng(seed);
  return topology::Waxman(20, 0.5, 0.4, rng);
}

TEST(ChurnModelTest, ArrivalsAreValidFlows) {
  graph::Digraph network = TestNetwork(14);
  Rng rng(15);
  ChurnModel churn;
  churn.arrival_count = 10;
  const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
  EXPECT_EQ(arrivals.size(), 10u);
  EXPECT_TRUE(traffic::AllFlowsValid(network, arrivals));
  for (const traffic::Flow& f : arrivals) {
    EXPECT_EQ(f.dst, churn.destination);
  }
}

TEST(ChurnModelTest, DeparturesRespectProbability) {
  Rng rng(17);
  ChurnModel churn;
  churn.departure_probability = 0.25;
  std::size_t total = 0;
  for (int trial = 0; trial < 100; ++trial) {
    total += DrawDepartures(40, churn, rng).size();
  }
  // E = 100 * 40 * 0.25 = 1000; allow generous slack.
  EXPECT_NEAR(static_cast<double>(total), 1000.0, 150.0);
}

// The per-source path memo must not change what is drawn: every arrival
// carries exactly the path a fresh BFS would find.
TEST(ChurnTraceTest, MemoisedArrivalsMatchShortestHopPath) {
  const graph::Digraph network = TestNetwork(18);
  ChurnModel churn;
  churn.arrival_count = 500;
  churn.destination = 3;
  Rng rng(19);
  const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
  ASSERT_EQ(arrivals.size(), churn.arrival_count);
  for (const traffic::Flow& flow : arrivals) {
    const auto path = graph::ShortestHopPath(network, flow.src, flow.dst);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(flow.path.vertices, path->vertices);
  }
}

TEST(ChurnTraceTest, EqualSeedsGiveEqualTraces) {
  const graph::Digraph network = TestNetwork(20);
  ChurnModel churn;
  churn.arrival_count = 7;
  churn.departure_probability = 0.2;
  const ChurnTrace a = BuildChurnTrace(network, churn, 12, 30, 21);
  const ChurnTrace b = BuildChurnTrace(network, churn, 12, 30, 21);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_EQ(a.epochs[e].departures, b.epochs[e].departures);
    ASSERT_EQ(a.epochs[e].arrivals.size(), b.epochs[e].arrivals.size());
    for (std::size_t i = 0; i < a.epochs[e].arrivals.size(); ++i) {
      const traffic::Flow& fa = a.epochs[e].arrivals[i];
      const traffic::Flow& fb = b.epochs[e].arrivals[i];
      EXPECT_EQ(fa.src, fb.src);
      EXPECT_EQ(fa.rate, fb.rate);
      EXPECT_EQ(fa.path.vertices, fb.path.vertices);
    }
  }
}

// Per epoch: departures strictly ascend, name only ordinals issued before
// the epoch's arrivals, and never name a flow that already departed; the
// replayed live set ends at FinalActiveCount.
TEST(ChurnTraceTest, DepartureOrdinalsAreStableAndLive) {
  const graph::Digraph network = TestNetwork(22);
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    ChurnModel churn;
    churn.arrival_count = 6;
    churn.departure_probability = 0.3;
    const std::size_t initial = 25;
    const ChurnTrace trace =
        BuildChurnTrace(network, churn, 15, initial, seed);
    std::vector<bool> departed(initial, false);
    std::size_t live = initial;
    for (const ChurnEpoch& epoch : trace.epochs) {
      for (std::size_t i = 0; i < epoch.departures.size(); ++i) {
        const std::size_t ordinal = epoch.departures[i];
        if (i > 0) {
          EXPECT_LT(epoch.departures[i - 1], ordinal);
        }
        ASSERT_LT(ordinal, departed.size()) << "seed " << seed;
        EXPECT_FALSE(departed[ordinal]) << "seed " << seed;
        departed[ordinal] = true;
      }
      live -= epoch.departures.size();
      live += epoch.arrivals.size();
      departed.resize(departed.size() + epoch.arrivals.size(), false);
    }
    std::size_t replayed = 0;
    for (bool gone : departed) replayed += gone ? 0 : 1;
    EXPECT_EQ(replayed, live);
    EXPECT_EQ(trace.FinalActiveCount(initial), replayed) << "seed " << seed;
  }
}

// Ordinals name the same flows as positions into the pre-arrival live
// list: replaying the identical RNG stream positionally, with
// per-departure erase, yields the same departing arrivals epoch by epoch.
TEST(ChurnTraceTest, OrdinalsMatchPositionalReplay) {
  const graph::Digraph network = TestNetwork(23);
  ChurnModel churn;
  churn.arrival_count = 5;
  churn.departure_probability = 0.25;
  const std::size_t initial = 12;
  const ChurnTrace trace = BuildChurnTrace(network, churn, 10, initial, 24);

  Rng rng(24);
  std::vector<std::size_t> positional(initial);
  for (std::size_t i = 0; i < initial; ++i) positional[i] = i;
  std::size_t issued = initial;
  for (const ChurnEpoch& epoch : trace.epochs) {
    const traffic::FlowSet arrivals = DrawArrivals(network, churn, rng);
    const std::vector<std::size_t> positions =
        DrawDepartures(positional.size(), churn, rng);
    std::vector<std::size_t> expected;
    for (std::size_t p : positions) expected.push_back(positional[p]);
    for (auto it = positions.rbegin(); it != positions.rend(); ++it) {
      positional.erase(positional.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    for (std::size_t a = 0; a < arrivals.size(); ++a) {
      positional.push_back(issued++);
    }
    EXPECT_EQ(epoch.departures, expected);
    EXPECT_EQ(epoch.arrivals.size(), arrivals.size());
  }
}

TEST(ChurnTraceTest, DepartingIdsIndexTheIdTable) {
  ChurnEpoch epoch;
  epoch.departures = {0, 2, 5};
  const std::vector<int> ids = {10, 11, 12, 13, 14, 15};
  EXPECT_EQ(DepartingIds(epoch, ids), (std::vector<int>{10, 12, 15}));
  epoch.departures = {6};
  EXPECT_DEATH(DepartingIds(epoch, ids), "not yet issued");
}

}  // namespace
}  // namespace tdmd::engine
