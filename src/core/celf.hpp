// Shared CELF (lazy greedy) selection queue.
//
// Submodularity of the decrement function (Theorem 2) means a cached
// marginal gain can only shrink as the deployment grows, so a max-heap of
// stale gains needs to revalidate only its top: pop, re-evaluate, and if
// the refreshed entry is still on top it is globally maximal.  Ties break
// toward the lowest vertex id, matching the plain full-scan selection.
//
// Both batch GTP (core/gtp.cpp, lazy mode) and the online IncrementalGtp
// solver (engine/incremental_gtp.cpp) instantiate this queue with their
// own gain oracle, so their selections are identical by construction —
// the equivalence the engine's property tests pin down.
#pragma once

// tdmd-lint: hot-path — no iostream formatting, rand, or
// system_clock::now in this file (tools/tdmd_lint rule hot-path).

#include <algorithm>
#include <cstddef>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "core/deployment.hpp"
#include "obs/trace.hpp"

namespace tdmd::core {

struct CelfCandidate {
  Bandwidth gain = -1.0;
  VertexId vertex = kInvalidVertex;
  std::size_t round = 0;  // round in which `gain` was computed
};

struct CelfCandidateLess {
  bool operator()(const CelfCandidate& a, const CelfCandidate& b) const {
    // Max-heap on gain; ties toward the lowest vertex id so lazy and plain
    // modes pick identical deployments.
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.vertex > b.vertex;
  }
};

class CelfQueue {
 public:
  /// Seeds the heap with the round-0 gain of every vertex.  `gain` is
  /// called once per vertex; `oracle_calls` (optional) counts them.
  template <typename GainFn>
  void Prime(VertexId num_vertices, GainFn&& gain,
             std::size_t* oracle_calls) {
    for (VertexId v = 0; v < num_vertices; ++v) {
      heap_.push(CelfCandidate{gain(v), v, 0});
      if (oracle_calls != nullptr) ++(*oracle_calls);
    }
  }

  /// Pops until the top entry's gain is fresh (computed in `round`).
  /// Entries already in `deployed` are discarded; stale entries are
  /// re-evaluated with `gain` and re-pushed.  Returns an invalid candidate
  /// when the queue runs dry.
  template <typename GainFn>
  CelfCandidate PopBest(std::size_t round, const Deployment& deployed,
                        GainFn&& gain, std::size_t* oracle_calls) {
    std::size_t evals_this_round = 0;
    CelfCandidate chosen;
    while (!heap_.empty()) {
      CelfCandidate top = heap_.top();
      heap_.pop();
      if (deployed.Contains(top.vertex)) continue;
      if (top.round == round) {
        chosen = top;
        break;
      }
      top.gain = gain(top.vertex);
      top.round = round;
      ++evals_this_round;
      if (oracle_calls != nullptr) ++(*oracle_calls);
      heap_.push(top);
    }
    if (chosen.vertex != kInvalidVertex) {
      obs::TraceInstant(obs::TracePhase::kCelfPop, evals_this_round);
    }
    return chosen;
  }

  /// Re-inserts a candidate popped and set aside by a caller-side filter
  /// (e.g. IncrementalGtp's coverability test).  The candidate's gain must
  /// be a valid upper bound on its current marginal gain — true for any
  /// value PopBest returned this round or earlier, by submodularity.
  void Push(const CelfCandidate& candidate) { heap_.push(candidate); }

  /// Sum of the `k` largest positive cached gains among vertices not in
  /// `deployed` — the data-dependent optimality certificate: every cached
  /// gain upper-bounds that vertex's current marginal decrement (Theorem
  /// 2), so for any deployment S with |S| <= k,
  ///   d(S) <= d(S ∪ P) <= d(P) + ResidualUpperBound(k, P).
  /// O(heap) copy + pops; called once per solve, off the round hot path.
  Bandwidth ResidualUpperBound(std::size_t k,
                               const Deployment& deployed) const {
    auto heap = heap_;
    std::vector<VertexId> taken;
    taken.reserve(k);
    Bandwidth sum = 0.0;
    while (!heap.empty() && taken.size() < k) {
      const CelfCandidate top = heap.top();
      heap.pop();
      if (top.gain <= 0.0) break;  // max-heap: the rest are no larger
      if (deployed.Contains(top.vertex)) continue;
      // A vertex normally has one live entry, but a stale duplicate (from
      // a caller-side re-push) must not be double-counted; k is small, so
      // the linear scan is cheap.
      if (std::find(taken.begin(), taken.end(), top.vertex) !=
          taken.end()) {
        continue;
      }
      taken.push_back(top.vertex);
      sum += top.gain;
    }
    return sum;
  }

  bool empty() const { return heap_.empty(); }

  /// Owned heap bytes, estimated from the live entry count (the
  /// underlying vector's capacity is not reachable through
  /// std::priority_queue; under steady CELF churn size tracks capacity
  /// closely enough for the tdmd_mem_* gauges).
  std::size_t MemoryFootprint() const {
    return heap_.size() * sizeof(CelfCandidate);
  }

 private:
  std::priority_queue<CelfCandidate, std::vector<CelfCandidate>,
                      CelfCandidateLess>
      heap_;
};

}  // namespace tdmd::core
