// Experiment E2 — Lemma 4.3: each execution of the RCA by processor A takes
// time O(d(A, root) + d(root, A)).
//
// We record every RCA's duration during full protocol runs, bucket them by
// the initiator's true loop length, and fit duration = a * loop + b. A tight
// linear fit (R^2 ~ 1) with a family-independent slope reproduces the lemma.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "graph/canonical.hpp"
#include "graph/random_graph.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

struct LoopSample {
  double loop = 0;      // d(A, root) + d(root, A)
  double duration = 0;  // ticks
  double flood = 0, mark = 0, token = 0, unmark = 0;  // phase decomposition
};

// Duration observer that also captures the Section 4.2.1 phase boundaries.
class PhaseObserver : public trace::SpanCollector {
 public:
  struct Stamps {
    Tick og_head = 0, odt = 0, token_back = 0;
  };
  void on_rca_start(NodeId n, Tick t, bool fwd) override {
    SpanCollector::on_rca_start(n, t, fwd);
    stamps_.push_back({});
  }
  void on_rca_phase(NodeId, Tick t, RcaPhase p) override {
    if (p == RcaPhase::kWaitOdt) stamps_.back().og_head = t;
    if (p == RcaPhase::kWaitToken) stamps_.back().odt = t;
    if (p == RcaPhase::kWaitUnmark) stamps_.back().token_back = t;
  }
  const std::vector<Stamps>& stamps() const { return stamps_; }

 private:
  std::vector<Stamps> stamps_;
};

std::vector<LoopSample> collect(const PortGraph& g, NodeId root) {
  PhaseObserver obs;
  GtdOptions opt;
  opt.observer = &obs;
  const ProtocolRun run = run_verified("rca", g, root, opt);
  (void)run;
  const auto from_root = bfs_distances(g, root);
  const auto to_root = bfs_distances_to(g, root);
  std::vector<LoopSample> out;
  for (std::size_t i = 0; i < obs.rca().size(); ++i) {
    const auto& span = obs.rca()[i];
    const auto& st = obs.stamps()[i];
    LoopSample s;
    s.loop = static_cast<double>(from_root[span.node] + to_root[span.node]);
    s.duration = static_cast<double>(span.end - span.start);
    s.flood = static_cast<double>(st.og_head - span.start);
    s.mark = static_cast<double>(st.odt - st.og_head);
    s.token = static_cast<double>(st.token_back - st.odt);
    s.unmark = static_cast<double>(span.end - st.token_back);
    out.push_back(s);
  }
  return out;
}

void print_table() {
  BenchJson json("E2");
  Table table({"workload", "#RCAs", "loop min", "loop max", "ticks/loop fit",
               "intercept", "R^2"});
  table.set_caption(
      "E2 (Lemma 4.3): per-RCA duration vs loop length d(A,root)+d(root,A)");

  std::vector<std::pair<std::string, PortGraph>> workloads;
  workloads.emplace_back("dering-48", directed_ring(48));
  workloads.emplace_back("biring-48", bidirectional_ring(48));
  workloads.emplace_back("debruijn-64", de_bruijn(6));
  workloads.emplace_back("treeloop-63", tree_loop_random(5, 3));
  workloads.emplace_back(
      "random3-64", random_strongly_connected(
                        {.nodes = 64, .delta = 3, .avg_out_degree = 2.0,
                         .seed = 17}));

  for (const auto& [label, g] : workloads) {
    const auto samples = collect(g, 0);
    std::vector<double> x, y;
    double mn = 1e18, mx = 0;
    for (const auto& s : samples) {
      x.push_back(s.loop);
      y.push_back(s.duration);
      mn = std::min(mn, s.loop);
      mx = std::max(mx, s.loop);
    }
    const LinearFit f = fit_linear(x, y);
    table.row()
        .cell(label)
        .cell(static_cast<std::uint64_t>(samples.size()))
        .cell(mn, 0)
        .cell(mx, 0)
        .cell(f.slope, 2)
        .cell(f.intercept, 1)
        .cell(f.r2, 4);
  }
  table.print(std::cout);
  json.add("loops", table);

  // Phase decomposition of the 11 ticks/hop constant, per workload.
  Table phases({"workload", "flood/hop", "mark/hop", "token/hop",
                "unmark/hop", "sum"});
  phases.set_caption(
      "\nPer-phase slopes (Section 4.2.1 steps; rings have the closed "
      "forms 3L-2 / 4L / 3L-2 / L+1)");
  for (const auto& [label, g] : workloads) {
    const auto samples = collect(g, 0);
    std::vector<double> loop, flood, mark, token, unmark;
    for (const auto& s : samples) {
      loop.push_back(s.loop);
      flood.push_back(s.flood);
      mark.push_back(s.mark);
      token.push_back(s.token);
      unmark.push_back(s.unmark);
    }
    const double fl = fit_proportional(loop, flood).slope;
    const double mk = fit_proportional(loop, mark).slope;
    const double tk = fit_proportional(loop, token).slope;
    const double um = fit_proportional(loop, unmark).slope;
    phases.row()
        .cell(label)
        .cell(fl, 2)
        .cell(mk, 2)
        .cell(tk, 2)
        .cell(um, 2)
        .cell(fl + mk + tk + um, 2);
  }
  phases.print(std::cout);
  json.add("phases", phases);
  write_tables(json);

  std::cout << "\nA linear fit with slope ~11 ticks per loop hop across all "
               "workloads reproduces Lemma 4.3; the decomposition shows "
               "where it goes: ~3/hop per growing-snake leg and per token "
               "lap, ~4/hop for the dying-snake marking (the tail drift), "
               "~1/hop for the UNMARK.\n";
}

}  // namespace

int main() {
  print_table();
  return 0;
}
