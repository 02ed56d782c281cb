// Unit tests for src/graph: the port multigraph, analysis, and I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/isomorphism.hpp"
#include "graph/port_graph.hpp"
#include "graph/random_graph.hpp"
#include "support/rng.hpp"

namespace dtop {
namespace {

TEST(PortGraph, ConnectAndLookup) {
  PortGraph g(3, 2);
  const WireId w = g.connect(0, 1, 2, 0);
  EXPECT_EQ(g.num_wires(), 1u);
  EXPECT_EQ(g.wire(w).from, 0u);
  EXPECT_EQ(g.wire(w).out_port, 1);
  EXPECT_EQ(g.wire(w).to, 2u);
  EXPECT_EQ(g.wire(w).in_port, 0);
  EXPECT_EQ(g.out_wire(0, 1), w);
  EXPECT_EQ(g.in_wire(2, 0), w);
  EXPECT_EQ(g.out_wire(0, 0), kNoWire);
}

TEST(PortGraph, PortReuseRejected) {
  PortGraph g(2, 2);
  g.connect(0, 0, 1, 0);
  EXPECT_THROW(g.connect(0, 0, 1, 1), Error);  // out-port busy
  EXPECT_THROW(g.connect(1, 0, 1, 0), Error);  // in-port busy
}

TEST(PortGraph, SelfLoopAndParallelEdges) {
  PortGraph g(2, 3);
  g.connect(0, 0, 0, 0);  // self loop
  g.connect(0, 1, 1, 0);
  g.connect(0, 2, 1, 1);  // parallel edge
  EXPECT_EQ(g.out_degree(0), 3);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.in_degree(1), 2);
}

TEST(PortGraph, MasksAndAwareness) {
  PortGraph g(2, 3);
  g.connect(0, 2, 1, 1);
  g.connect(1, 0, 0, 0);
  EXPECT_EQ(g.out_mask(0), 0b100);
  EXPECT_EQ(g.in_mask(0), 0b001);
  EXPECT_EQ(g.out_mask(1), 0b001);
  EXPECT_EQ(g.in_mask(1), 0b010);
  EXPECT_EQ(g.lowest_out_port(0), 2);
}

TEST(PortGraph, DisconnectFreesPorts) {
  PortGraph g(2, 2);
  const WireId w = g.connect(0, 0, 1, 0);
  g.disconnect(w);
  EXPECT_EQ(g.out_wire(0, 0), kNoWire);
  EXPECT_EQ(g.in_wire(1, 0), kNoWire);
  // Ports are reusable afterwards.
  g.connect(0, 0, 1, 0);
  EXPECT_EQ(g.wire_ids().size(), 1u);
}

TEST(PortGraph, ValidateRejectsIsolatedPorts) {
  PortGraph g(2, 2);
  g.connect(0, 0, 1, 0);
  EXPECT_THROW(g.validate(), Error);  // node 1 has no out, node 0 no in
}

TEST(Analysis, BfsDistancesOnRing) {
  const PortGraph g = directed_ring(5);
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[1], 1u);
  EXPECT_EQ(d[4], 4u);
  const auto dt = bfs_distances_to(g, 0);
  EXPECT_EQ(dt[4], 1u);
  EXPECT_EQ(dt[1], 4u);
}

TEST(Analysis, SccCounts) {
  // Two 2-cycles joined by a one-way bridge: two components, so not
  // strongly connected; a return wire across the bridge joins them.
  PortGraph g(4, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 0, 0);
  g.connect(2, 0, 3, 0);
  g.connect(3, 0, 2, 0);
  g.connect(1, 1, 2, 1);  // bridge, one-way
  EXPECT_FALSE(is_strongly_connected(g));
  g.connect(2, 1, 1, 1);
  EXPECT_TRUE(is_strongly_connected(g));
}

// Strong connectivity by its definition, independent of any search: the
// reflexive transitive closure of the wire relation is complete.
bool strongly_connected_by_closure(const PortGraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (NodeId v = 0; v < n; ++v) reach[v][v] = true;
  for (const WireId w : g.wire_ids())
    reach[g.wire(w).from][g.wire(w).to] = true;
  for (NodeId k = 0; k < n; ++k)
    for (NodeId i = 0; i < n; ++i)
      if (reach[i][k])
        for (NodeId j = 0; j < n; ++j)
          if (reach[k][j]) reach[i][j] = true;
  for (const auto& row : reach)
    for (const bool r : row)
      if (!r) return false;
  return n > 0;
}

// Every wire turned around (out-ports become in-ports and vice versa).
PortGraph reversed(const PortGraph& g) {
  PortGraph r(g.num_nodes(), g.delta());
  for (const WireId w : g.wire_ids()) {
    const Wire& wr = g.wire(w);
    r.connect(wr.to, wr.in_port, wr.from, wr.out_port);
  }
  return r;
}

TEST(Analysis, StrongConnectivityMatchesTransitiveClosure) {
  // Node 0 reaches every node, but nodes 2 and 3 cannot get back to it; in
  // the reversed graph every node reaches node 0 but node 0 reaches only 1.
  PortGraph one_way(4, 2);
  one_way.connect(0, 0, 1, 0);
  one_way.connect(1, 0, 0, 0);
  one_way.connect(1, 1, 2, 0);
  one_way.connect(2, 0, 3, 0);
  one_way.connect(3, 0, 2, 1);
  for (const PortGraph& g : {one_way, reversed(one_way)}) {
    EXPECT_FALSE(strongly_connected_by_closure(g));
    EXPECT_FALSE(is_strongly_connected(g));
  }
  PortGraph single(1, 2);
  EXPECT_TRUE(is_strongly_connected(single));
  single.connect(0, 0, 0, 0);
  EXPECT_TRUE(is_strongly_connected(single));

  // Random networks with 0-3 wires shut down: both outcomes must occur.
  int connected = 0, disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const auto delta = static_cast<Port>(2 + rng.next_below(3));
    PortGraph g = random_strongly_connected(
        {.nodes = static_cast<NodeId>(2 + rng.next_below(23)),
         .delta = delta,
         .avg_out_degree = delta == 2 ? 1.5 : 2.0,
         .seed = seed});
    const auto removals = rng.next_below(4);
    for (std::uint64_t k = 0; k < removals; ++k) {
      const std::vector<WireId> wires = g.wire_ids();
      if (wires.empty()) break;
      g.disconnect(wires[rng.next_below(wires.size())]);
    }
    const bool expected = strongly_connected_by_closure(g);
    EXPECT_EQ(is_strongly_connected(g), expected)
        << "seed " << seed << ", " << removals << " wires removed";
    EXPECT_EQ(is_strongly_connected(reversed(g)), expected) << "seed " << seed;
    (expected ? connected : disconnected) += 1;
  }
  EXPECT_GT(connected, 30);
  EXPECT_GT(disconnected, 30);
}

TEST(Analysis, DiameterOfRingAndBiring) {
  EXPECT_EQ(diameter(directed_ring(8)), 7u);
  EXPECT_EQ(diameter(bidirectional_ring(8)), 4u);
}

TEST(Analysis, MaxRoundTrip) {
  const PortGraph g = directed_ring(6);
  // For every v != root, dist(root,v) + dist(v,root) == 6 on a 6-ring.
  EXPECT_EQ(max_round_trip(g, 0), 6u);
}

TEST(GraphIo, RoundTrip) {
  const PortGraph g = random_strongly_connected(
      {.nodes = 17, .delta = 3, .avg_out_degree = 2.0, .seed = 99});
  const std::string text = graph_to_string(g);
  const PortGraph h = graph_from_string(text);
  EXPECT_EQ(g, h);
}

TEST(GraphIo, RejectsGarbage) {
  std::istringstream is("not-a-graph v9 3 2");
  EXPECT_THROW(read_graph(is), Error);
}

TEST(GraphIo, DotContainsEdges) {
  const PortGraph g = directed_ring(3);
  const std::string dot = graph_to_dot(g, 0);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST(Isomorphism, IdenticalGraphsMatch) {
  const PortGraph g = de_bruijn(3);
  const IsoResult r = rooted_isomorphic(g, 0, g, 0);
  EXPECT_TRUE(r.isomorphic) << r.mismatch;
}

TEST(Isomorphism, RelabelledGraphsMatch) {
  // Same topology with node ids permuted must match through the roots.
  PortGraph a(3, 2);
  a.connect(0, 0, 1, 0);
  a.connect(1, 0, 2, 0);
  a.connect(2, 0, 0, 0);
  PortGraph b(3, 2);
  b.connect(0, 0, 2, 0);
  b.connect(2, 0, 1, 0);
  b.connect(1, 0, 0, 0);
  EXPECT_TRUE(rooted_isomorphic(a, 0, b, 0).isomorphic);
}

TEST(Isomorphism, DetectsPortMismatch) {
  PortGraph a(2, 2);
  a.connect(0, 0, 1, 0);
  a.connect(1, 0, 0, 0);
  PortGraph b(2, 2);
  b.connect(0, 0, 1, 1);  // different in-port
  b.connect(1, 0, 0, 0);
  const IsoResult r = rooted_isomorphic(a, 0, b, 0);
  EXPECT_FALSE(r.isomorphic);
  EXPECT_FALSE(r.mismatch.empty());
}

TEST(Isomorphism, DetectsMissingEdge) {
  PortGraph a(2, 2);
  a.connect(0, 0, 1, 0);
  a.connect(1, 0, 0, 0);
  a.connect(0, 1, 1, 1);
  PortGraph b(2, 2);
  b.connect(0, 0, 1, 0);
  b.connect(1, 0, 0, 0);
  EXPECT_FALSE(rooted_isomorphic(a, 0, b, 0).isomorphic);
}

TEST(RandomGraph, RespectsBoundsAndConnectivity) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const PortGraph g = random_strongly_connected(
        {.nodes = 25, .delta = 4, .avg_out_degree = 2.5, .seed = seed});
    EXPECT_TRUE(is_strongly_connected(g));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GE(g.out_degree(v), 1);
      EXPECT_LE(g.out_degree(v), 4);
      EXPECT_GE(g.in_degree(v), 1);
      EXPECT_LE(g.in_degree(v), 4);
    }
  }
}

TEST(RandomGraph, SeedDeterminism) {
  const RandomGraphOptions opt{.nodes = 20, .delta = 3, .seed = 7};
  EXPECT_EQ(random_strongly_connected(opt), random_strongly_connected(opt));
}

TEST(RandomGraph, NoSelfLoopsWhenDisabled) {
  RandomGraphOptions opt;
  opt.nodes = 30;
  opt.delta = 4;
  opt.avg_out_degree = 3.0;
  opt.allow_self_loops = false;
  opt.seed = 13;
  const PortGraph g = random_strongly_connected(opt);
  for (WireId w : g.wire_ids()) EXPECT_NE(g.wire(w).from, g.wire(w).to);
}

}  // namespace
}  // namespace dtop
