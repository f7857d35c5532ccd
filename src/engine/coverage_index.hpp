// FlowCoverageIndex: the serving layer's delta-maintained coverage state.
//
// core::Instance precomputes the two lookups every solver needs — the
// per-flow prefix-distance table behind l_v(f) and the reverse
// vertex -> flows index — but it is immutable: under churn a from-scratch
// re-solve rebuilds both every epoch, O(|F| * |V|) work that dwarfs the
// actual delta.  This index maintains the same state incrementally:
//
//   * AddFlow appends one visit entry per path vertex: O(|p_f|).
//   * RemoveFlow swap-erases each of the flow's visit entries from its
//     vertex list in O(1) via back-pointers (each flow slot remembers the
//     position of its entry in every vertex list it appears in, and the
//     entry moved into the hole has its back-pointer fixed up): O(|p_f|).
//
// Flows are addressed by FlowTicket — a (slot, generation) handle that
// stays valid across other flows' arrivals/departures and detects stale
// double-removes.  Slots are recycled through a free list, so long-running
// engines do not grow without bound under churn.
//
// The index is copyable; the Engine freezes a copy per async re-solve so
// the solver reads a consistent epoch while the live index keeps mutating.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "core/instance.hpp"
#include "faults/faults.hpp"
#include "graph/digraph.hpp"
#include "traffic/flow.hpp"

namespace tdmd::engine {

/// Stable handle for an active flow; packs (generation << 32 | slot).
using FlowTicket = std::int64_t;
inline constexpr FlowTicket kInvalidTicket = -1;

struct IndexStats {
  /// Visit entries added plus removed — the size of the maintained delta,
  /// the engine's substitute for the O(|F| * |V|) rebuild.
  std::uint64_t delta_ops = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
};

class FlowCoverageIndex {
 public:
  /// The index owns its network (copies are self-contained, which the
  /// async re-solve pipeline relies on).  `lambda` must lie in [0, 1].
  FlowCoverageIndex(graph::Digraph network, double lambda);

  const graph::Digraph& network() const { return network_; }
  double lambda() const { return lambda_; }
  VertexId num_vertices() const { return network_.num_vertices(); }

  /// Validates the flow (positive rate, simple path in the network) and
  /// indexes it.  O(|p_f|).
  FlowTicket AddFlow(traffic::Flow flow);

  /// Removes the flow in O(|p_f|); returns false on a stale or unknown
  /// ticket (idempotent, so double-removes are safe).
  bool RemoveFlow(FlowTicket ticket);

  std::size_t active_flows() const { return active_count_; }

  /// Sum of r_f * |p_f| over active flows, maintained incrementally — the
  /// d(P) reference point of Lemma 1 for the current flow set.
  Bandwidth unprocessed_bandwidth() const { return unprocessed_bandwidth_; }

  /// One entry of the reverse index: flow (by slot) and the 0-based
  /// position of the vertex on that flow's path.  Serving the flow there
  /// diminishes |p_f| - path_index downstream edges (the paper's l_v(f)).
  ///
  /// `edges` (|p_f|) and `rate` (r_f, exact in a double for any rate below
  /// 2^53) are denormalized from the flow so the CELF gain loops — the hot
  /// path of every re-solve — stream this vector without dereferencing
  /// FlowAt(slot) per entry.
  struct Visit {
    std::uint32_t slot;
    std::int32_t path_index;
    std::int32_t edges;
    Bandwidth rate;
  };

  /// Active flows whose path visits v.  Order is arbitrary (swap-erase),
  /// which is safe for the gain oracle because marginal decrements are
  /// sums over this list.
  const std::vector<Visit>& FlowsThrough(VertexId v) const {
    TDMD_DCHECK(network_.IsValidVertex(v));
    return flows_through_[static_cast<std::size_t>(v)];
  }

  // --- slot-space accessors (for solvers iterating the reverse index) ---

  /// One past the largest slot ever used; slots below this may be inactive.
  std::size_t num_slots() const { return slots_.size(); }
  bool SlotActive(std::uint32_t slot) const {
    return slot < slots_.size() && slots_[slot].active;
  }
  const traffic::Flow& FlowAt(std::uint32_t slot) const {
    TDMD_DCHECK(SlotActive(slot));
    return slots_[slot].flow;
  }

  /// Distinct-path ("class") bookkeeping.  Flows sharing one path are
  /// interchangeable for coverage: every deployment serves either all of
  /// them or none.  The feasibility probe therefore works per class with
  /// flow-count weights, so its cost scales with distinct paths (at most
  /// |V|^2 shortest paths, typically far fewer) instead of |F|.
  struct PathClass {
    std::vector<VertexId> vertices;
    /// Active flows currently on this path.  A class whose flows all
    /// departed keeps its record (and id) for reuse.
    std::size_t active_flows = 0;
  };
  std::size_t num_path_classes() const { return classes_.size(); }
  const PathClass& PathClassAt(std::size_t c) const {
    TDMD_DCHECK(c < classes_.size());
    return classes_[c];
  }

  /// Ticket currently occupying `slot` (must be active).
  FlowTicket TicketAt(std::uint32_t slot) const;
  /// The flow behind a ticket, or nullptr if stale/unknown.
  const traffic::Flow* Find(FlowTicket ticket) const;
  /// Tickets of all active flows, ascending by slot.
  std::vector<FlowTicket> ActiveTickets() const;

  // --- ticket packing (exposed for checkpoint serialization) ------------

  static FlowTicket ComposeTicket(std::uint32_t slot,
                                  std::uint32_t generation);
  static std::uint32_t TicketSlot(FlowTicket ticket);
  static std::uint32_t TicketGeneration(FlowTicket ticket);

  // --- fault injection ---------------------------------------------------

  /// Installs a fault injector fired (site kIndexDelta) at the top of
  /// AddFlow/RemoveFlow, *before* any mutation, so an injected throw
  /// leaves the index exactly as it was (strong exception safety — the
  /// caller can simply retry).  The injector must outlive the index and
  /// every copy of it; pass nullptr to uninstall.
  void set_fault_injector(faults::FaultInjector* injector) {
    fault_injector_ = injector;
  }

  // --- checkpoint/restore -------------------------------------------------

  /// One active flow pinned to its exact (slot, generation) pair.
  struct SlotRecord {
    FlowTicket ticket = kInvalidTicket;
    traffic::Flow flow;
  };

  /// Rebuilds the slot table of a checkpointed index: `active` re-occupies
  /// the recorded slots (same tickets, so client-held handles survive a
  /// restore) and `free_slots` (bottom-to-top of the recorded free stack,
  /// encoded as tickets carrying each free slot's next generation minus
  /// nothing — i.e. its current generation) restores the recycling order so
  /// post-restore arrivals draw the same tickets the uninterrupted run
  /// would have drawn.  Requires an empty index; every slot below the
  /// implied table size must appear exactly once across the two lists.
  /// Flows are validated exactly as in AddFlow.
  void RestoreSlots(const std::vector<SlotRecord>& active,
                    const std::vector<FlowTicket>& free_slots);

  /// The free-slot stack bottom-to-top, as tickets carrying each free
  /// slot's current (post-bump) generation — the exact shape RestoreSlots
  /// consumes.
  std::vector<FlowTicket> FreeSlotTickets() const;

  const IndexStats& stats() const { return stats_; }

  /// Overwrites the delta counters (checkpoint restore only).
  void RestoreStats(const IndexStats& stats) { stats_ = stats; }

  /// Materializes the current flow set as a core::Instance (flows ordered
  /// by ascending slot).  O(|F| * |V|) — this is exactly the rebuild the
  /// index exists to avoid on the serving path; it is meant for audits,
  /// tests and interop with the batch solvers.
  core::Instance BuildInstance() const;

  /// Owned heap bytes: every allocation this index holds (vector
  /// capacities, per-slot path storage, the path-class map's node
  /// estimate, the owned network's CSR arrays), excluding sizeof(*this).
  /// Checkpoint-independent — it measures live capacity, not serialized
  /// size — and sanity-checked against allocator deltas in
  /// tests/obs_mem_footprint_test.cpp; Engine::Metrics exposes it as
  /// tdmd_mem_index_bytes plus the derived tdmd_mem_bytes_per_flow gauge.
  std::size_t MemoryFootprint() const;

 private:
  struct Slot {
    traffic::Flow flow;
    /// visit_pos[i] = index of this flow's entry in
    /// flows_through_[flow.path.vertices[i]].
    std::vector<std::uint32_t> visit_pos;
    std::uint32_t path_class = 0;
    std::uint32_t generation = 0;
    bool active = false;
  };

  /// Indexes one validated flow into `slot` (shared by AddFlow and
  /// RestoreSlots).
  void IndexFlowIntoSlot(std::uint32_t slot, traffic::Flow flow);

  graph::Digraph network_;
  double lambda_;
  faults::FaultInjector* fault_injector_ = nullptr;
  std::vector<std::vector<Visit>> flows_through_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<PathClass> classes_;
  /// Path vertices -> class id (deterministic ordered lookup; arrivals pay
  /// O(|p| log C) here, C = distinct paths seen).
  std::map<std::vector<VertexId>, std::uint32_t> class_by_path_;
  std::size_t active_count_ = 0;
  Bandwidth unprocessed_bandwidth_ = 0.0;
  IndexStats stats_;
};

}  // namespace tdmd::engine
