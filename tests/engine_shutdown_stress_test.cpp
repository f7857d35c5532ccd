// Destruction races (run under TSan in CI): tearing an engine down while
// a fault-injected cancellation storm has re-solves, retries and watchdog
// kills in flight must not race, leak, or deadlock.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "engine/churn_trace.hpp"
#include "engine/engine.hpp"
#include "faults/faults.hpp"
#include "parallel/thread_pool.hpp"
#include "topology/generators.hpp"

namespace tdmd::engine {
namespace {

graph::Digraph TestNetwork(std::uint64_t seed) {
  Rng rng(seed);
  return topology::Waxman(16, 0.5, 0.4, rng);
}

TEST(EngineShutdownStressTest, DestructionDuringCancellationStorm) {
  const graph::Digraph network = TestNetwork(81);
  ChurnModel churn;
  churn.arrival_count = 8;
  churn.departure_probability = 0.2;

  for (std::uint64_t round = 0; round < 12; ++round) {
    faults::FaultSpec spec;
    spec.seed = 1000 + round;
    auto& greedy = spec.at(faults::FaultSite::kGreedyRound);
    greedy.throw_probability = 0.15;
    greedy.cancel_probability = 0.25;
    greedy.delay_probability = 0.2;
    greedy.delay = std::chrono::milliseconds(1);
    spec.at(faults::FaultSite::kIndexDelta).throw_probability = 0.1;
    faults::FaultInjector injector(spec);

    EngineOptions options;
    options.k = 4;
    options.synchronous = false;
    options.solver_threads = 2;
    options.fault_injector = &injector;
    options.max_resolve_retries = 2;
    options.retry_backoff_initial = std::chrono::milliseconds(1);
    options.watchdog_interval = std::chrono::milliseconds(1);
    options.stall_timeout = std::chrono::milliseconds(2);

    const ChurnTrace trace =
        BuildChurnTrace(network, churn, 6, 0, /*seed=*/2000 + round);
    {
      Engine engine(network, options);
      std::vector<FlowTicket> tickets;
      for (const ChurnEpoch& epoch : trace.epochs) {
        const Engine::BatchResult result =
            engine.SubmitBatch(epoch.arrivals, DepartingIds(epoch, tickets));
        tickets.insert(tickets.end(), result.tickets.begin(),
                       result.tickets.end());
      }
      // No WaitIdle: the destructor must cope with live re-solve chains,
      // pending retries and a running watchdog.
    }
  }
}

// Lost pool tasks: a throwing task hook drops the engine-equivalent
// workload outright.  The pool must stay consistent and its futures must
// report broken_promise rather than hanging.
TEST(EngineShutdownStressTest, PoolSurvivesDroppedTasksDuringShutdown) {
  for (std::uint64_t round = 0; round < 8; ++round) {
    faults::FaultSpec spec;
    spec.seed = 3000 + round;
    spec.at(faults::FaultSite::kPoolTask).throw_probability = 0.5;
    faults::FaultInjector injector(spec);

    parallel::ThreadPool pool(2);
    pool.SetTaskHook([&injector]() {
      injector.MaybeInject(faults::FaultSite::kPoolTask);
    });
    std::vector<std::future<int>> futures;
    futures.reserve(32);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.Submit([i]() { return i; }));
    }
    // Destroy the pool with work possibly still queued; every future must
    // resolve (value or broken_promise), never hang.
    pool.Wait();
    int executed = 0, dropped = 0;
    for (auto& f : futures) {
      try {
        f.get();
        ++executed;
      } catch (const std::future_error&) {
        ++dropped;
      }
    }
    const parallel::ThreadPool::PoolStats stats = pool.stats();
    EXPECT_EQ(static_cast<std::uint64_t>(executed), stats.tasks_executed);
    EXPECT_EQ(static_cast<std::uint64_t>(dropped), stats.tasks_dropped);
    EXPECT_EQ(executed + dropped, 32);
  }
}

}  // namespace
}  // namespace tdmd::engine
