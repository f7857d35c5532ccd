// Deployment plan P and allocation plan F (Section 3.1).
//
// P is the set of vertices with a middlebox (the paper's {v | m_v = 1});
// F assigns each flow its serving vertex.  Once P is fixed the optimal F
// is forced — serve every flow at the deployed vertex nearest its source
// (earliest path position), which maximizes the diminished distance — so
// Allocate() is the only allocator in the library.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/instance.hpp"

namespace tdmd::core {

/// Vertex set with O(1) membership, kept in insertion order (GTP's output
/// order is the greedy selection order, which tests inspect).
class Deployment {
 public:
  Deployment() = default;
  explicit Deployment(VertexId num_vertices)
      : member_(static_cast<std::size_t>(num_vertices), 0) {}
  Deployment(VertexId num_vertices, const std::vector<VertexId>& vertices);

  void Add(VertexId v);
  void Remove(VertexId v);
  bool Contains(VertexId v) const {
    return v >= 0 && static_cast<std::size_t>(v) < member_.size() &&
           member_[static_cast<std::size_t>(v)] != 0;
  }

  /// Number of deployed middleboxes |P|.
  std::size_t size() const { return vertices_.size(); }
  bool empty() const { return vertices_.empty(); }

  /// Deployed vertices in insertion order.
  const std::vector<VertexId>& vertices() const { return vertices_; }

  /// Deployed vertices sorted ascending (for canonical comparison).
  std::vector<VertexId> SortedVertices() const;

  std::string ToString() const;

  /// Owned heap bytes (membership bitmap + vertex list capacities),
  /// excluding sizeof(*this).  Feeds the tdmd_mem_snapshot_bytes gauge.
  std::size_t MemoryFootprint() const {
    return member_.capacity() * sizeof(char) +
           vertices_.capacity() * sizeof(VertexId);
  }

  friend bool operator==(const Deployment& a, const Deployment& b) {
    return a.SortedVertices() == b.SortedVertices();
  }

 private:
  std::vector<char> member_;
  std::vector<VertexId> vertices_;
};

/// Allocation plan: serving vertex per flow (kInvalidVertex = unserved).
struct Allocation {
  std::vector<VertexId> serving_vertex;

  bool AllServed() const;
};

/// The forced-optimal allocation: each flow is assigned the deployed
/// vertex with the smallest path index (nearest its source).
Allocation Allocate(const Instance& instance, const Deployment& deployment);

/// Number of vertices differing between two deployments (adds + removes) —
/// the operational move cost charged by engine::Engine's hysteresis rule.
std::size_t DeploymentMoveCount(const Deployment& from, const Deployment& to);

/// True iff every flow has at least one deployed vertex on its path.
bool IsFeasible(const Instance& instance, const Deployment& deployment);

/// Result bundle shared by all placement algorithms.
struct PlacementResult {
  Deployment deployment;
  Allocation allocation;
  Bandwidth bandwidth = 0.0;
  bool feasible = false;
  /// Number of objective/marginal-oracle evaluations the algorithm made
  /// (the unit in which Theorem 3 states GTP's complexity).
  std::size_t oracle_calls = 0;
};

}  // namespace tdmd::core
