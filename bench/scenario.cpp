#include "scenario.hpp"

#include <algorithm>
#include <iostream>
#include <queue>

#include "graph/shortest_path.hpp"
#include "topology/ark.hpp"
#include "traffic/flow.hpp"

namespace tdmd::bench {

namespace {

topology::ArkTopology MakeArk(Rng& rng) {
  topology::ArkParams params;
  params.num_monitors = 110;
  return topology::GenerateArk(params, rng);
}

}  // namespace

TreeScenario MakeTreeScenario(const ScenarioParams& params, Rng& rng) {
  const topology::ArkTopology ark = MakeArk(rng);
  graph::Tree tree =
      topology::ExtractTreeSubgraph(ark, params.tree_size, rng);
  traffic::WorkloadParams workload;
  workload.flow_density = params.flow_density;
  workload.link_capacity = params.tree_link_capacity;
  workload.rates.max_rate = params.max_rate;
  traffic::FlowSet flows = traffic::MergeSameSourceFlows(
      traffic::GenerateTreeWorkload(tree, workload, rng));
  core::Instance instance =
      core::MakeTreeInstance(tree, flows, params.lambda);
  return TreeScenario{std::move(tree), std::move(instance)};
}

GeneralScenario MakeGeneralScenario(const ScenarioParams& params, Rng& rng) {
  const topology::ArkTopology ark = MakeArk(rng);
  graph::Digraph g =
      topology::ExtractGeneralSubgraph(ark, params.general_size, rng);
  traffic::WorkloadParams workload;
  workload.flow_density = params.flow_density;
  workload.link_capacity = params.general_link_capacity;
  workload.rates.max_rate = params.max_rate;
  traffic::FlowSet flows =
      traffic::GenerateGeneralWorkload(g, {0}, workload, rng);
  return GeneralScenario{
      core::Instance(std::move(g), std::move(flows), params.lambda)};
}

const std::vector<std::string> kTreeAlgorithmNames = {
    "Random", "Best-effort", "GTP", "HAT", "DP"};

std::vector<experiment::Measurement> RunTreeAlgorithms(
    const TreeScenario& scenario, std::size_t k, Rng& rng) {
  std::vector<experiment::Measurement> measurements;
  measurements.reserve(5);

  core::RandomPlacementOptions random_options;
  random_options.k = k;
  measurements.push_back(Measure([&] {
    return core::RandomPlacement(scenario.instance, random_options, rng);
  }));
  measurements.push_back(
      Measure([&] { return core::BestEffort(scenario.instance, k); }));
  core::GtpOptions gtp_options;
  gtp_options.max_middleboxes = k;
  gtp_options.feasibility_aware = true;
  measurements.push_back(
      Measure([&] { return core::Gtp(scenario.instance, gtp_options); }));
  measurements.push_back(
      Measure([&] { return core::Hat(scenario.instance, scenario.tree, k); }));
  measurements.push_back(Measure(
      [&] { return core::DpTree(scenario.instance, scenario.tree, k); }));
  return measurements;
}

const std::vector<std::string> kGeneralAlgorithmNames = {
    "Random", "Best-effort", "GTP"};

std::vector<experiment::Measurement> RunGeneralAlgorithms(
    const GeneralScenario& scenario, std::size_t k, Rng& rng) {
  std::vector<experiment::Measurement> measurements;
  measurements.reserve(3);
  core::RandomPlacementOptions random_options;
  random_options.k = k;
  measurements.push_back(Measure([&] {
    return core::RandomPlacement(scenario.instance, random_options, rng);
  }));
  measurements.push_back(
      Measure([&] { return core::BestEffort(scenario.instance, k); }));
  core::GtpOptions gtp_options;
  gtp_options.max_middleboxes = k;
  gtp_options.feasibility_aware = true;
  measurements.push_back(
      Measure([&] { return core::Gtp(scenario.instance, gtp_options); }));
  return measurements;
}

BenchFlags AddBenchFlags(ArgParser& parser) {
  BenchFlags flags;
  flags.trials = parser.AddInt("trials", 10, "seeded trials per x value");
  flags.seed = parser.AddInt("seed", 42, "root RNG seed");
  flags.threads =
      parser.AddInt("threads", 0, "worker threads (0 = hardware)");
  flags.csv = parser.AddBool("csv", false, "also emit CSV (long format)");
  return flags;
}

experiment::SweepConfig MakeSweepConfig(const BenchFlags& flags,
                                        std::string x_name,
                                        std::vector<double> x_values) {
  experiment::SweepConfig config;
  config.x_name = std::move(x_name);
  config.x_values = std::move(x_values);
  config.trials = static_cast<std::size_t>(*flags.trials);
  config.seed = static_cast<std::uint64_t>(*flags.seed);
  config.threads = static_cast<std::size_t>(*flags.threads);
  return config;
}

void Emit(const std::string& figure, const experiment::SweepResult& result,
          bool csv) {
  experiment::PrintSweepTables(std::cout, figure, result);
  if (csv) {
    experiment::PrintSweepCsv(std::cout, result);
  }
}

ChurnWorkload BuildChurnWorkload(VertexId size, std::size_t flows,
                                 std::size_t epochs, double churn_fraction,
                                 std::uint64_t seed) {
  Rng rng(seed);
  topology::ArkParams ark_params;
  ark_params.num_monitors =
      std::max<std::size_t>(3 * static_cast<std::size_t>(size), 90);
  const topology::ArkTopology ark = topology::GenerateArk(ark_params, rng);

  ChurnWorkload workload;
  workload.network = topology::ExtractGeneralSubgraph(ark, size, rng);

  engine::ChurnModel prefill_model;
  prefill_model.arrival_count = flows;
  workload.prefill =
      engine::DrawArrivals(workload.network, prefill_model, rng);

  engine::ChurnModel churn;
  churn.arrival_count =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   static_cast<double>(flows) *
                                   churn_fraction));
  churn.departure_probability = churn_fraction;
  workload.trace = engine::BuildChurnTrace(workload.network, churn, epochs,
                                           workload.prefill.size(), rng);
  return workload;
}

namespace {

/// k-center seeds: start from vertex 0, repeatedly add the vertex
/// farthest (in hops, out-arc direction) from every hub picked so far.
std::vector<VertexId> FarthestHubs(const graph::Digraph& g, std::size_t r) {
  std::vector<VertexId> hubs{0};
  const auto num_vertices = static_cast<std::size_t>(g.num_vertices());
  std::vector<int> dist(num_vertices, -1);
  const auto bfs = [&](VertexId source) {
    std::queue<VertexId> frontier;
    if (dist[static_cast<std::size_t>(source)] != 0) {
      dist[static_cast<std::size_t>(source)] = 0;
      frontier.push(source);
    }
    while (!frontier.empty()) {
      const VertexId u = frontier.front();
      frontier.pop();
      for (EdgeId e : g.OutArcs(u)) {
        const VertexId w = g.arc(e).head;
        const int du = dist[static_cast<std::size_t>(u)];
        if (dist[static_cast<std::size_t>(w)] < 0 ||
            dist[static_cast<std::size_t>(w)] > du + 1) {
          dist[static_cast<std::size_t>(w)] = du + 1;
          frontier.push(w);
        }
      }
    }
  };
  while (hubs.size() < r) {
    std::fill(dist.begin(), dist.end(), -1);
    for (VertexId hub : hubs) bfs(hub);
    VertexId best = 0;
    int best_dist = -1;
    for (std::size_t v = 0; v < num_vertices; ++v) {
      if (dist[v] > best_dist) {
        best_dist = dist[v];
        best = static_cast<VertexId>(v);
      }
    }
    hubs.push_back(best);
  }
  return hubs;
}

/// region(v) = nearest hub (multi-source BFS, ties to the hub reached
/// first in hub order).
std::vector<int> HubRegions(const graph::Digraph& g,
                            const std::vector<VertexId>& hubs) {
  const auto num_vertices = static_cast<std::size_t>(g.num_vertices());
  std::vector<int> dist(num_vertices, 1 << 30);
  std::vector<int> region(num_vertices, -1);
  std::queue<VertexId> frontier;
  for (std::size_t h = 0; h < hubs.size(); ++h) {
    dist[static_cast<std::size_t>(hubs[h])] = 0;
    region[static_cast<std::size_t>(hubs[h])] = static_cast<int>(h);
    frontier.push(hubs[h]);
  }
  while (!frontier.empty()) {
    const VertexId u = frontier.front();
    frontier.pop();
    for (EdgeId e : g.OutArcs(u)) {
      const auto w = static_cast<std::size_t>(g.arc(e).head);
      if (dist[w] > dist[static_cast<std::size_t>(u)] + 1) {
        dist[w] = dist[static_cast<std::size_t>(u)] + 1;
        region[w] = region[static_cast<std::size_t>(u)];
        frontier.push(g.arc(e).head);
      }
    }
  }
  return region;
}

/// Draws one flow inside region `r`: source sampled from the region,
/// destination its hub, shortest-hop path (a source's hub is fixed, so
/// `paths` memoises one path per source).  Rejection-sampled; returns an
/// empty-path flow if the region yields nothing connectable.
traffic::Flow DrawRegionFlow(const graph::Digraph& g,
                             const std::vector<VertexId>& hubs,
                             const std::vector<int>& region, int r,
                             engine::SourcePathMemo& paths, Rng& rng) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    const auto src = static_cast<VertexId>(
        rng.NextBounded(static_cast<std::uint64_t>(g.num_vertices())));
    if (region[static_cast<std::size_t>(src)] != r) continue;
    const VertexId dst = hubs[static_cast<std::size_t>(r)];
    if (src == dst) continue;
    const graph::Path& path = paths.Get(src, dst);
    if (path.NumEdges() == 0) continue;
    traffic::Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.rate = rng.NextInt(1, 12);
    flow.path = path;
    return flow;
  }
  return {};
}

}  // namespace

ShardWorkload BuildShardWorkload(VertexId size, std::size_t flows,
                                 std::size_t epochs, std::size_t regions,
                                 std::uint64_t seed) {
  Rng rng(seed);
  topology::ArkParams ark_params;
  ark_params.num_monitors =
      std::max<std::size_t>(3 * static_cast<std::size_t>(size), 90);
  const topology::ArkTopology ark = topology::GenerateArk(ark_params, rng);

  ShardWorkload workload;
  workload.network = topology::ExtractGeneralSubgraph(ark, size, rng);
  workload.hubs = FarthestHubs(workload.network, regions);
  const std::vector<int> region =
      HubRegions(workload.network, workload.hubs);
  engine::SourcePathMemo paths(workload.network);

  workload.prefill.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) {
    const int r = static_cast<int>(rng.NextBounded(regions));
    traffic::Flow flow = DrawRegionFlow(workload.network, workload.hubs,
                                        region, r, paths, rng);
    if (flow.path.empty()) continue;
    workload.prefill.push_back(std::move(flow));
  }

  // Churn cadence tuned so a single engine re-solves every epoch while a
  // per-region shard sees its quiet epochs fall under the deferral
  // threshold (bench/shard_scaling pairs this with
  // resolve_churn_fraction = 0.03).
  const double depart_p = 0.16;
  const std::size_t arrive_c = flows / regions * 16 / 100;
  // Arrival ordinal and region of each live flow, in arrival order.
  struct LiveFlow {
    std::size_t ordinal;
    int region;
  };
  std::vector<LiveFlow> live;
  live.reserve(workload.prefill.size());
  for (const traffic::Flow& flow : workload.prefill) {
    live.push_back({live.size(), region[static_cast<std::size_t>(flow.src)]});
  }
  std::size_t issued = live.size();
  workload.epochs.reserve(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    const int r = static_cast<int>(e % regions);
    engine::ChurnEpoch epoch;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].region == r && rng.NextBool(depart_p)) {
        epoch.departures.push_back(live[i].ordinal);
      } else {
        live[kept++] = live[i];
      }
    }
    live.resize(kept);
    for (std::size_t i = 0; i < arrive_c; ++i) {
      traffic::Flow flow = DrawRegionFlow(workload.network, workload.hubs,
                                          region, r, paths, rng);
      if (flow.path.empty()) continue;
      epoch.arrivals.push_back(std::move(flow));
      live.push_back({issued++, r});
    }
    workload.epochs.push_back(std::move(epoch));
  }
  return workload;
}

}  // namespace tdmd::bench
