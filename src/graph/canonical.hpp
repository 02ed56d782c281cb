// Canonical breadth-first trees and canonical shortest paths.
//
// Definition 4.1 of the paper: the *canonical shortest path* from A to B is
// the path along which the first surviving growing snake released from A
// travels to B. Growing snakes flood all out-ports simultaneously and a
// processor accepts only its first-arriving character, breaking simultaneous
// arrivals by lowest in-port number. The resulting tree is therefore fully
// determined by the graph: each node's parent wire is the one coming from a
// node one hop closer to the source whose *in-port number at the node* is
// smallest.
//
// This module computes that tree offline; the test suite asserts that the
// protocol's snakes carve exactly these trees, and the master computer uses
// canonical root paths as processor identities.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/port_graph.hpp"

namespace dtop {

// One hop of a path: out-port of the tail node, in-port of the head node.
struct PortStep {
  Port out = 0;
  Port in = 0;
  bool operator==(const PortStep&) const = default;
  auto operator<=>(const PortStep&) const = default;
};

using PortPath = std::vector<PortStep>;

std::string to_string(const PortPath& path);

struct CanonicalTree {
  NodeId source = kNoNode;
  std::vector<std::uint32_t> dist;      // hop distance from source
  std::vector<WireId> parent_wire;      // kNoWire at source / unreachable
};

// Flood tree of the growing snakes released from `source`.
CanonicalTree canonical_bfs_tree(const PortGraph& g, NodeId source);

// The canonical shortest path source -> v (sequence of port steps).
// Requires v reachable from source.
PortPath canonical_path(const PortGraph& g, const CanonicalTree& tree,
                        NodeId v);

// Walks `path` from `start` following out-ports; checks that each hop's
// in-port matches. Returns the node reached. Throws if the path does not
// exist in the graph.
NodeId walk_path(const PortGraph& g, NodeId start, const PortPath& path);

// --- rooted canonical form -------------------------------------------------
//
// Anonymous processors make node ids a simulator artefact: two relabelings
// of the same port-labelled network are the same network, and the protocol
// rooted at r behaves identically on both. The *rooted canonical form*
// quotients that freedom out. Every node is renamed to its rank in the
// lexicographic order of canonical root paths (the root is rank 0), and the
// wire list is re-expressed in those ranks — so the serialized form, and
// hence its hash, is invariant under node relabelling and distinguishes
// non-rooted-isomorphic networks. The dtopd result cache keys on this hash:
// any relabelling of a solved (network, root) instance is a cache hit.
//
// The lexicographic order of canonical root paths is a pre-order walk of the
// canonical BFS tree, visiting each node's children in out-port order (a
// path sorts after its prefix; sibling subtrees differ first at one node's
// out-port, and an out-port has one wire). canonical_form ranks by that walk,
// so the whole form costs O(N * delta): no per-node paths, no sort. The
// order is not BFS-level order: on the 8-node de Bruijn graph rooted at 1,
// node 4 (two hops) ranks before node 3 (one hop).
//
// Requires every node reachable from `root` (the model's own requirement);
// throws Error otherwise.
struct CanonicalForm {
  std::vector<NodeId> order;  // canonical rank -> original node id
  std::string bytes;          // serialized rooted canonical description
  std::uint64_t hash = 0;     // FNV-1a 64 of `bytes`
};

CanonicalForm canonical_form(const PortGraph& g, NodeId root);

// Just the hash (still computes the full form; convenience for cache keys).
std::uint64_t canonical_hash(const PortGraph& g, NodeId root);

}  // namespace dtop
