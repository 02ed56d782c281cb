// Graph analysis used both to validate generated networks (the paper requires
// strong connectivity) and to compute the ground-truth quantities the
// experiments compare against (distances, diameter). Every query is built on
// one breadth-first search over the port tables, O(N * delta) per source.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/port_graph.hpp"

namespace dtop {

inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

// Forward BFS hop distances from `src` (kUnreachable where not reachable).
std::vector<std::uint32_t> bfs_distances(const PortGraph& g, NodeId src);

// Distances *to* `dst` along forward edges (BFS on the reverse graph).
std::vector<std::uint32_t> bfs_distances_to(const PortGraph& g, NodeId dst);

// Every node reaches every other (two searches from node 0, one along the
// wires and one against them). False for an empty graph.
bool is_strongly_connected(const PortGraph& g);

// Directed diameter: max over ordered pairs of hop distance. Requires strong
// connectivity.
std::uint32_t diameter(const PortGraph& g);

// Max over v of dist(v, root) + dist(root, v): an upper bound on any RCA loop
// in a run rooted at `root`.
std::uint32_t max_round_trip(const PortGraph& g, NodeId root);

}  // namespace dtop
