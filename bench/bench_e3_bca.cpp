// Experiment E3 — Section 4.1: each use of the BCA costs O(D).
//
// The BCA reverses an edge A -> B via the loop B -> ... -> A -> B of length
// d(B, A) + 1. We record every BCA's duration during full runs and fit it
// against that loop length per workload.
#include <iostream>

#include "bench_common.hpp"
#include "graph/random_graph.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void print_table() {
  Table table({"workload", "#BCAs", "loop mean", "ticks/loop fit",
               "intercept", "R^2"});
  table.set_caption(
      "E3 (BCA contract): per-BCA duration vs loop length d(B,A)+1");

  std::vector<std::pair<std::string, PortGraph>> workloads;
  workloads.emplace_back("dering-32", directed_ring(32));
  workloads.emplace_back("biring-48", bidirectional_ring(48));
  workloads.emplace_back("debruijn-64", de_bruijn(6));
  workloads.emplace_back(
      "random3-48", random_strongly_connected(
                        {.nodes = 48, .delta = 3, .avg_out_degree = 2.0,
                         .seed = 23}));

  for (const auto& [label, g] : workloads) {
    trace::SpanCollector obs;
    GtdOptions opt;
    opt.observer = &obs;
    const ProtocolRun run = run_verified(label, g, 0, opt);

    // Reconstruct which edge each BCA reversed: BCAs fire in DFS-return
    // order, and each return pops the node its matching FORWARD pushed, so
    // replaying the transcript's push/pop sequence pairs the k-th BCA with
    // the edge (X -> Y) it sent the token back across. The marked loop is
    // the canonical loop Y -> ... -> X -> Y of length d(Y, X) + 1.
    std::vector<double> x, y;
    Accumulator loop_acc;
    std::vector<NodeId> stack{0};
    std::size_t bca_idx = 0;
    for (const RcaRecord& rec : run.result.records) {
      if (rec.forward) {
        const NodeId cur = rec.self ? 0 : walk_path(g, 0, rec.down);
        stack.push_back(cur);
        continue;
      }
      // A pop: the token returned from stack.back() to the node below.
      DTOP_CHECK(stack.size() >= 2, "unbalanced transcript");
      const NodeId y_node = stack.back();
      stack.pop_back();
      const NodeId x_node = stack.back();
      DTOP_CHECK(bca_idx < obs.bca().size(), "more pops than BCAs");
      const auto& span = obs.bca()[bca_idx++];
      DTOP_CHECK(span.node == y_node, "BCA/pop pairing broke");
      const double loop =
          static_cast<double>(bfs_distances(g, y_node)[x_node]) + 1.0;
      x.push_back(loop);
      y.push_back(static_cast<double>(span.end - span.start));
      loop_acc.add(loop);
    }
    DTOP_CHECK(bca_idx == obs.bca().size(), "unmatched BCAs");
    const LinearFit f = fit_linear(x, y);
    table.row()
        .cell(label)
        .cell(static_cast<std::uint64_t>(x.size()))
        .cell(loop_acc.mean(), 2)
        .cell(f.slope, 2)
        .cell(f.intercept, 1)
        .cell(f.r2, 4);
  }
  table.print(std::cout);
  BenchJson json("E3");
  json.add("bca", table);
  write_tables(json);
  std::cout << "\nA tight linear fit (R^2 ~ 1) of BCA duration against the "
               "true loop length d(B,A)+1 reproduces the O(D) contract of "
               "Section 4.1.\n";
}

}  // namespace

int main() {
  print_table();
  return 0;
}
