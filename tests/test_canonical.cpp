// Canonical BFS trees / canonical shortest paths (Definition 4.1) and the
// network families.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/analysis.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/isomorphism.hpp"
#include "graph/permute.hpp"
#include "graph/random_graph.hpp"

namespace dtop {
namespace {

TEST(Canonical, PathOnDirectedRing) {
  const PortGraph g = directed_ring(4);
  const CanonicalTree t = canonical_bfs_tree(g, 0);
  EXPECT_EQ(t.dist[3], 3u);
  const PortPath p = canonical_path(g, t, 3);
  ASSERT_EQ(p.size(), 3u);
  for (const PortStep& s : p) {
    EXPECT_EQ(s.out, 0);
    EXPECT_EQ(s.in, 0);
  }
  EXPECT_EQ(walk_path(g, 0, p), 3u);
}

TEST(Canonical, LowestInPortTieBreak) {
  // Two length-2 paths from 0 to 3; the tie must break on node 3's lowest
  // in-port, regardless of other port numbers.
  PortGraph g(4, 2);
  g.connect(0, 0, 1, 0);
  g.connect(0, 1, 2, 0);
  g.connect(1, 0, 3, 1);  // via node 1 -> in-port 1 of node 3
  g.connect(2, 0, 3, 0);  // via node 2 -> in-port 0 of node 3 (wins)
  g.connect(3, 0, 0, 1);  // close the cycle
  const CanonicalTree t = canonical_bfs_tree(g, 0);
  const PortPath p = canonical_path(g, t, 3);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[1].in, 0);  // entered through in-port 0
  EXPECT_EQ(p[0].out, 1);  // therefore went 0 -> 2 first
}

TEST(Canonical, PrefixProperty) {
  // Every prefix of a canonical path is the canonical path of the
  // intermediate node — the invariant that makes down-path naming work.
  const PortGraph g = random_strongly_connected(
      {.nodes = 40, .delta = 4, .avg_out_degree = 2.5, .seed = 21});
  const CanonicalTree t = canonical_bfs_tree(g, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const PortPath p = canonical_path(g, t, v);
    NodeId cur = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const WireId w = g.out_wire(cur, p[i].out);
      cur = g.wire(w).to;
      PortPath prefix(p.begin(), p.begin() + static_cast<long>(i) + 1);
      EXPECT_EQ(prefix, canonical_path(g, t, cur));
    }
    EXPECT_EQ(cur, v);
  }
}

TEST(Canonical, WalkPathRejectsBadPaths) {
  const PortGraph g = directed_ring(3);
  EXPECT_THROW(walk_path(g, 0, PortPath{{1, 0}}), Error);  // port 1 dangling
  EXPECT_THROW(walk_path(g, 0, PortPath{{0, 1}}), Error);  // wrong in-port
}

// --- rooted canonical form: the dtopd cache-key correctness property ------

TEST(CanonicalForm, HashInvariantUnderRelabelling) {
  // Node ids are a simulator artefact; the canonical-form hash must depend
  // only on the rooted port-labelled structure. Same hash across random
  // relabelings of each family (with the root mapped along).
  const std::vector<std::pair<std::string, NodeId>> cases = {
      {"torus", 16}, {"debruijn", 16}, {"kautz", 12},
      {"treeloop", 15}, {"random3", 20}, {"grid", 16},
  };
  for (const auto& [family, size] : cases) {
    const FamilyInstance fi = make_family(family, size, 7);
    const std::uint64_t expected = canonical_hash(fi.graph, 0);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      std::vector<NodeId> mapping;
      const PortGraph permuted =
          permute_nodes_random(fi.graph, seed, &mapping);
      EXPECT_EQ(canonical_hash(permuted, mapping[0]), expected)
          << family << " relabelling seed " << seed;
    }
  }
}

TEST(CanonicalForm, DistinguishesNonIsomorphicFamilies) {
  // Distinct hashes across the (pairwise non-isomorphic) family instances:
  // collisions here would merge distinct cache entries.
  std::map<std::uint64_t, std::string> seen;
  for (const std::string& name : family_names()) {
    const FamilyInstance fi = make_family(name, 24, 3);
    const std::uint64_t h = canonical_hash(fi.graph, 0);
    const auto [it, inserted] = seen.emplace(h, fi.label);
    EXPECT_TRUE(inserted) << fi.label << " collides with " << it->second;
  }
  // Sizes within one family differ too.
  EXPECT_NE(canonical_hash(directed_ring(4), 0),
            canonical_hash(directed_ring(5), 0));
}

TEST(CanonicalForm, DistinguishesTreeLoopLeafOrders) {
  // Lemma 5.1's family at depth 2: all leaf orders are pairwise
  // non-isomorphic rooted networks, so all hashes must differ.
  std::set<std::uint64_t> hashes;
  std::vector<std::uint32_t> rest{1, 2, 3};
  do {
    std::vector<std::uint32_t> order{0};
    order.insert(order.end(), rest.begin(), rest.end());
    hashes.insert(canonical_hash(tree_loop(2, order), 0));
  } while (std::next_permutation(rest.begin(), rest.end()));
  EXPECT_EQ(hashes.size(), 6u);
}

TEST(CanonicalForm, RootedIsomorphicRootsShareAHash) {
  // A directed ring looks the same from every root (rotation isomorphism):
  // the hash quotients that out, which is exactly what lets the dtopd cache
  // answer a differently-rooted but rooted-isomorphic request.
  const PortGraph g = directed_ring(6);
  EXPECT_EQ(canonical_hash(g, 0), canonical_hash(g, 3));
}

TEST(CanonicalForm, RequiresReachabilityFromRoot) {
  // Two disjoint 2-cycles: valid port graph, but node 2 is unreachable from
  // root 0 — no canonical name exists for it, so the form must refuse.
  PortGraph g(4, 2);
  g.connect(0, 0, 1, 0);
  g.connect(1, 0, 0, 0);
  g.connect(2, 0, 3, 0);
  g.connect(3, 0, 2, 0);
  g.validate();
  EXPECT_THROW(canonical_form(g, 0), Error);
}

// The ranking by its definition: every node's canonical root path, sorted
// lexicographically (the root's empty path first).
std::vector<NodeId> ranking_by_definition(const PortGraph& g, NodeId root) {
  const CanonicalTree tree = canonical_bfs_tree(g, root);
  std::vector<PortPath> paths(g.num_nodes());
  std::vector<NodeId> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    paths[v] = canonical_path(g, tree, v);
    order[v] = v;
  }
  std::sort(order.begin(), order.end(),
            [&](NodeId a, NodeId b) { return paths[a] < paths[b]; });
  return order;
}

TEST(CanonicalForm, OrderIsTheCanonicalRanking) {
  // order[r] is the original id of canonical rank r; rank 0 is the root and
  // ranks follow the lexicographic order of canonical root paths. Checked on
  // every family at two sizes (every root up to N = 32) and on random
  // networks of degree bound 2..4.
  const auto check = [](const PortGraph& g, NodeId root,
                        const std::string& what) {
    const CanonicalForm form = canonical_form(g, root);
    ASSERT_EQ(form.order.size(), g.num_nodes()) << what;
    EXPECT_EQ(form.order[0], root) << what;
    EXPECT_EQ(form.order, ranking_by_definition(g, root))
        << what << " root " << root;
  };
  for (const std::string& name : family_names()) {
    for (const NodeId size : {16u, 48u}) {
      const FamilyInstance fi = make_family(name, size, 5);
      const NodeId n = fi.graph.num_nodes();
      const std::string what = fi.label + "-" + std::to_string(n);
      if (n <= 32) {
        for (NodeId root = 0; root < n; ++root) check(fi.graph, root, what);
      } else {
        for (const NodeId root : {NodeId{0}, n / 2, n - 1})
          check(fi.graph, root, what);
      }
    }
  }
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto delta = static_cast<Port>(2 + seed % 3);
    const PortGraph g = random_strongly_connected(
        {.nodes = static_cast<NodeId>(6 + seed % 40),
         .delta = delta,
         .avg_out_degree = delta == 2 ? 1.75 : 0.8 * delta,
         .seed = seed});
    check(g, static_cast<NodeId>(seed % g.num_nodes()), "random");
  }
}

TEST(CanonicalForm, OrderIsPreOrderNotBfsLevel) {
  // De Bruijn on 8 nodes from root 1: 1 -> 2 (out-port 0), 3 (out-port 1),
  // and 2 -> 4 on out-port 0. Node 4 is one hop deeper than node 3 but its
  // root path [0, 0] sorts before node 3's [1].
  const PortGraph g = de_bruijn(3);
  const CanonicalForm form = canonical_form(g, 1);
  const auto rank = [&](NodeId v) {
    return std::find(form.order.begin(), form.order.end(), v) -
           form.order.begin();
  };
  const CanonicalTree tree = canonical_bfs_tree(g, 1);
  ASSERT_EQ(tree.dist[3], 1u);
  ASSERT_EQ(tree.dist[4], 2u);
  EXPECT_LT(rank(4), rank(3));
}

// Byte identity across code changes: the canonical hash is the dtopd cache
// key and the persistent cache store's record key, so a refactor of the
// serializer or the hash must leave these values alone (computed before the
// byte layer moved to support/bytes.hpp).
TEST(CanonicalForm, HashIsPinned) {
  EXPECT_EQ(canonical_hash(make_family("debruijn", 16, 1).graph, 0),
            0x5b8a14561df5888bull);
  EXPECT_EQ(canonical_hash(make_family("torus", 16, 1).graph, 0),
            0x52df13c976f1ce8bull);
  EXPECT_EQ(canonical_hash(make_family("treeloop", 15, 1).graph, 0),
            0x43903b1f898f6091ull);
  // The dtopd_mixed hot-set families at their largest size, and a random
  // network from a non-zero root (values from the sort-based ranking that
  // the pre-order walk replaced).
  const std::vector<std::pair<std::string, std::uint64_t>> hot = {
      {"debruijn", 0x67f2a5867a7c5045ull},
      {"shufflex", 0x140b745212d45a13ull},
      {"kautz", 0x95f2a6ba419398a8ull},
      {"butterfly", 0xd0b131f2bd90bb03ull},
      {"ccc", 0x9858f2776505512dull},
      {"torus", 0xf3f8a82745cbe081ull},
  };
  for (const auto& [family, pinned] : hot) {
    EXPECT_EQ(canonical_hash(make_family(family, 128, 1).graph, 0), pinned)
        << family;
  }
  const PortGraph g = random_strongly_connected(
      {.nodes = 100, .delta = 3, .avg_out_degree = 2.5, .seed = 2002});
  EXPECT_EQ(canonical_hash(g, 17), 0x99bbf3d7e3c7be9dull);
}

TEST(Families, DirectedRingShape) {
  const PortGraph g = directed_ring(6);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_wires(), 6u);
  EXPECT_TRUE(is_strongly_connected(g));
  g.validate();
}

TEST(Families, BidirectionalRingShape) {
  const PortGraph g = bidirectional_ring(5);
  EXPECT_EQ(g.num_wires(), 10u);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Families, TreeLoopShape) {
  // depth 3: 15 nodes, 8 leaves; tree edges 2*14 = 28, loop edges 8.
  const PortGraph g = tree_loop_random(3, 5);
  EXPECT_EQ(g.num_nodes(), 15u);
  EXPECT_EQ(g.num_wires(), 28u + 8u);
  EXPECT_TRUE(is_strongly_connected(g));
  g.validate();
  EXPECT_LE(diameter(g), 2u * 3u + 8u);
}

TEST(Families, TreeLoopDistinctOrdersDistinctTopologies) {
  // Lemma 5.1's heart: different leaf orders give non-isomorphic
  // port-labelled networks (rooted at the tree root).
  const PortGraph a = tree_loop(2, {0, 1, 2, 3});
  const PortGraph b = tree_loop(2, {0, 2, 1, 3});
  EXPECT_FALSE(rooted_isomorphic(a, 0, b, 0).isomorphic);
}

TEST(Families, TreeLoopRejectsBadPermutation) {
  EXPECT_THROW(tree_loop(2, {0, 1, 2, 2}), Error);
  EXPECT_THROW(tree_loop(2, {0, 1, 2}), Error);
}

TEST(Families, DeBruijnShape) {
  const PortGraph g = de_bruijn(4);  // 16 nodes
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_wires(), 32u);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_EQ(diameter(g), 4u);
  g.validate();
}

TEST(Families, ShuffleExchangeShape) {
  const PortGraph g = shuffle_exchange(4);  // 16 nodes
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_EQ(g.num_wires(), 32u);
  EXPECT_TRUE(is_strongly_connected(g));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.out_degree(v), 2);
    EXPECT_EQ(g.in_degree(v), 2);
  }
  EXPECT_LE(diameter(g), 2u * 4u);
}

TEST(Families, WrappedButterflyShape) {
  const PortGraph g = wrapped_butterfly(3);  // 24 nodes
  EXPECT_EQ(g.num_nodes(), 24u);
  EXPECT_EQ(g.num_wires(), 48u);
  EXPECT_TRUE(is_strongly_connected(g));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.out_degree(v), 2);
    EXPECT_EQ(g.in_degree(v), 2);
  }
}

TEST(Families, TreeLoopAllOrdersPairwiseDistinct) {
  // Lemma 5.1 exhaustively at depth 2: with leaf 0 pinned first, all 6
  // cyclic orders of the remaining 3 leaves yield pairwise non-isomorphic
  // rooted port-labelled networks — the counting argument's base case.
  std::vector<std::vector<std::uint32_t>> orders;
  std::vector<std::uint32_t> rest{1, 2, 3};
  std::sort(rest.begin(), rest.end());
  do {
    std::vector<std::uint32_t> order{0};
    order.insert(order.end(), rest.begin(), rest.end());
    orders.push_back(order);
  } while (std::next_permutation(rest.begin(), rest.end()));
  ASSERT_EQ(orders.size(), 6u);
  for (std::size_t i = 0; i < orders.size(); ++i) {
    for (std::size_t j = i + 1; j < orders.size(); ++j) {
      const PortGraph a = tree_loop(2, orders[i]);
      const PortGraph b = tree_loop(2, orders[j]);
      EXPECT_FALSE(rooted_isomorphic(a, 0, b, 0).isomorphic)
          << "orders " << i << " and " << j;
    }
  }
}

TEST(Families, KautzShape) {
  const PortGraph g = kautz(3);  // 3 * 2^2 = 12 nodes
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_wires(), 24u);
  EXPECT_TRUE(is_strongly_connected(g));
  EXPECT_LE(diameter(g), 3u);
}

TEST(Families, CccShape) {
  const PortGraph g = cube_connected_cycles(3);  // 24 nodes, degree 3
  EXPECT_EQ(g.num_nodes(), 24u);
  EXPECT_TRUE(is_strongly_connected(g));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.out_degree(v), 3);
    EXPECT_EQ(g.in_degree(v), 3);
  }
}

TEST(Families, TorusShape) {
  const PortGraph g = directed_torus(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_wires(), 24u);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Families, DegradedGridStaysStronglyConnected) {
  const PortGraph g = degraded_grid(4, 4, 0.3, 17);
  EXPECT_TRUE(is_strongly_connected(g));
  g.validate();
  // Some wires must actually have been dropped.
  const PortGraph full = degraded_grid(4, 4, 0.0, 17);
  EXPECT_LT(g.num_wires() + 0u, full.num_wires() + 0u);
}

TEST(Families, SatelliteRingsShape) {
  const PortGraph g = satellite_rings(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(Families, MakeFamilyKnowsAllNames) {
  for (const std::string& name : family_names()) {
    const FamilyInstance fi = make_family(name, 24, 3);
    EXPECT_EQ(fi.label, name);
    EXPECT_GE(fi.graph.num_nodes(), 2u) << name;
    EXPECT_TRUE(is_strongly_connected(fi.graph)) << name;
    fi.graph.validate();
  }
  EXPECT_THROW(make_family("nonsense", 8, 1), Error);
}

}  // namespace
}  // namespace dtop
