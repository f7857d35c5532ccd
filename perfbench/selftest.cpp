// Self-test of the benchmark's workload generator.  Exits non-zero on the
// first failed check.
//
//   * Cached paths equal uncached graph::ShortestHopPath for every pair.
//   * Every hub_resolve-shaped flow ends at a hub, so deploying the hubs
//     (k >= |hubs|) serves every flow: the workload is feasible by
//     construction.
//   * Regional flows stay inside their region and run to its hub.
//   * Geometric-skip departures have the Bernoulli mean, and the same seed
//     replays the same epochs while another seed does not.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "graph/shortest_path.hpp"
#include "workload.hpp"

namespace tdmd::perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAILED: " << what << "\n";
  }
}

void PathCacheMatchesUncached(const Topology& topo) {
  PathCache cache(topo.network);
  const VertexId n = topo.network.num_vertices();
  for (VertexId src = 0; src < n; ++src) {
    for (VertexId dst = 0; dst < n; ++dst) {
      const std::optional<graph::Path> direct =
          src == dst ? std::nullopt
                     : graph::ShortestHopPath(topo.network, src, dst);
      // Ask twice: the second lookup must hit the cache.
      cache.PathId(src, dst);
      const std::int32_t id = cache.PathId(src, dst);
      if (!direct.has_value()) {
        Expect(id == -1, "unreachable pair cached as a path");
      } else {
        Expect(id >= 0 && cache.path(id).vertices == direct->vertices,
               "cached path differs from ShortestHopPath for " +
                   std::to_string(src) + "->" + std::to_string(dst));
      }
    }
  }
}

bool ServedBy(const graph::Path& path, const std::vector<VertexId>& boxes) {
  for (VertexId v : path.vertices) {
    for (VertexId b : boxes) {
      if (v == b) return true;
    }
  }
  return false;
}

void HubWorkloadFeasibleWithHubBoxes(const Topology& topo) {
  TrafficShape shape;
  shape.flows = 20000;
  shape.arrival_fraction = 0.005;
  shape.departure_probability = 0.005;
  Generator gen(topo, shape, 7);
  const Batch prefill = gen.Prefill();
  Expect(prefill.arrivals.size() == shape.flows, "prefill size");
  for (const traffic::Flow& flow : prefill.arrivals) {
    Expect(ServedBy(flow.path, topo.hubs), "flow not served by the hubs");
    Expect(flow.path.vertices.back() == flow.dst, "path does not end at dst");
    if (failures > 0) return;
  }
  Expect(gen.paths().size() > topo.hubs.size(), "too few path classes");
}

void RegionalFlowsStayInRegion(const Topology& topo) {
  TrafficShape shape;
  shape.flows = 8000;
  shape.arrival_fraction = 0.16;
  shape.departure_probability = 0.16;
  shape.regional = true;
  Generator gen(topo, shape, 11);
  const Batch prefill = gen.Prefill();
  std::vector<std::size_t> sizes(gen.num_pools(), 0);
  for (std::size_t i = 0; i < prefill.arrivals.size(); ++i) {
    const traffic::Flow& flow = prefill.arrivals[i];
    const std::uint32_t pool = prefill.arrival_pools[i];
    ++sizes[pool];
    Expect(flow.dst == topo.hubs[pool], "regional flow not to its hub");
    Expect(topo.region[static_cast<std::size_t>(flow.src)] == pool,
           "regional source outside its region");
  }
  const Batch epoch = gen.NextEpoch(3, sizes);
  Expect(epoch.departure_pool == 3, "epoch churn not in region 3");
  for (std::uint32_t pool : epoch.arrival_pools) {
    Expect(pool == 3, "arrival outside the epoch's region");
  }
  for (std::size_t pos : epoch.departures) {
    Expect(pos < sizes[3], "departure position out of range");
  }
}

void SamplingAndDeterminism(const Topology& topo) {
  Rng rng(3);
  const std::size_t n = 1000000;
  const double p = 0.05;
  const std::vector<std::size_t> picked = SampleBernoulli(n, p, rng);
  const double mean = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mean * (1 - p));
  Expect(std::fabs(static_cast<double>(picked.size()) - mean) < 5 * sigma,
         "geometric skip count off the Bernoulli mean");
  for (std::size_t i = 1; i < picked.size(); ++i) {
    Expect(picked[i] > picked[i - 1], "departures not ascending");
  }
  Expect(SampleBernoulli(10, 1.0, rng).size() == 10, "p = 1 takes all");
  Expect(SampleBernoulli(10, 0.0, rng).empty(), "p = 0 takes none");

  TrafficShape shape;
  shape.flows = 5000;
  const auto draw = [&](std::uint64_t seed) {
    Generator gen(topo, shape, seed);
    Batch prefill = gen.Prefill();
    std::vector<std::size_t> sizes{prefill.arrivals.size()};
    const Batch epoch = gen.NextEpoch(0, sizes);
    std::vector<std::int64_t> trace(prefill.arrival_paths.begin(),
                                    prefill.arrival_paths.end());
    trace.insert(trace.end(), epoch.departures.begin(),
                 epoch.departures.end());
    for (const traffic::Flow& flow : epoch.arrivals) trace.push_back(flow.rate);
    return trace;
  };
  Expect(draw(5) == draw(5), "same seed, different input");
  Expect(draw(5) != draw(6), "different seeds, same input");
}

}  // namespace
}  // namespace tdmd::perfbench

int main() {
  using namespace tdmd::perfbench;
  const Topology hubs = MakeTopology(200, 32, 20200817);
  PathCacheMatchesUncached(hubs);
  HubWorkloadFeasibleWithHubBoxes(hubs);
  RegionalFlowsStayInRegion(MakeTopology(200, 8, 20200817));
  SamplingAndDeterminism(MakeTopology(200, 1, 20200817));
  if (failures > 0) {
    std::cerr << failures << " generator check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench generator self-test passed\n";
  return 0;
}
