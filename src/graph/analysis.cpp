#include "graph/analysis.hpp"

#include <algorithm>

namespace dtop {
namespace {

// Breadth-first search over the port tables from `src`, following out-wires
// (forward) or in-wires (`reverse`). Fills `dist` and leaves the visit order
// in `queue`, so queue.size() is the number of nodes reached and
// dist[queue.back()] the largest distance. O(N * delta), no adjacency lists.
void bfs(const PortGraph& g, NodeId src, bool reverse,
         std::vector<std::uint32_t>& dist, std::vector<NodeId>& queue) {
  dist.assign(g.num_nodes(), kUnreachable);
  queue.clear();
  queue.reserve(g.num_nodes());
  dist[src] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (Port p = 0; p < g.delta(); ++p) {
      const WireId w = reverse ? g.in_wire(u, p) : g.out_wire(u, p);
      if (w == kNoWire) continue;
      const Wire& wr = g.wire(w);
      const NodeId v = reverse ? wr.from : wr.to;
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
}

std::vector<std::uint32_t> bfs(const PortGraph& g, NodeId src, bool reverse) {
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  bfs(g, src, reverse, dist, queue);
  return dist;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const PortGraph& g, NodeId src) {
  return bfs(g, src, false);
}

std::vector<std::uint32_t> bfs_distances_to(const PortGraph& g, NodeId dst) {
  return bfs(g, dst, true);
}

bool is_strongly_connected(const PortGraph& g) {
  // Strongly connected iff node 0 reaches every node and every node
  // reaches node 0.
  if (g.num_nodes() == 0) return false;
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  for (const bool reverse : {false, true}) {
    bfs(g, 0, reverse, dist, queue);
    if (queue.size() != g.num_nodes()) return false;
  }
  return true;
}

std::uint32_t diameter(const PortGraph& g) {
  DTOP_REQUIRE(is_strongly_connected(g), "diameter of non-SC graph");
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  std::uint32_t d = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bfs(g, v, false, dist, queue);
    DTOP_CHECK(queue.size() == g.num_nodes(), "unreachable pair in SC graph");
    d = std::max(d, dist[queue.back()]);
  }
  return d;
}

std::uint32_t max_round_trip(const PortGraph& g, NodeId root) {
  const auto from_root = bfs_distances(g, root);
  const auto to_root = bfs_distances_to(g, root);
  std::uint32_t m = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    DTOP_CHECK(from_root[v] != kUnreachable && to_root[v] != kUnreachable,
               "max_round_trip requires strong connectivity");
    m = std::max(m, from_root[v] + to_root[v]);
  }
  return m;
}

}  // namespace dtop
