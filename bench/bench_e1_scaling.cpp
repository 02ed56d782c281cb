// Experiment E1 — Lemma 4.4: the Global Topology Determination Algorithm
// terminates in O(N*D).
//
// For each family and size we report the measured tick count T, N*D, and
// the ratio T/(N*D); the ratio staying bounded (and roughly flat per
// family) across the sweep is the paper's claim. A power-law fit of T
// against N*D is printed per family.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

// The engine's own workloads in model time: exact tick/message/step counts
// of full runs on a de Bruijn graph and two rings, plus a truncated dense
// flood. Wall-clock engine throughput is perfbench's question (full_run,
// full_run_threads); these counts are deterministic, so the bench-json CI
// job diffs them at tolerance 0.
void print_model_time_table(BenchJson& json) {
  Table table({"workload", "N", "D", "E", "ticks", "messages", "node_steps",
               "avg_active"});
  table.set_caption("E1: engine workloads (model time)");

  const std::pair<const char*, PortGraph> full_runs[] = {
      {"debruijn-64", de_bruijn(6)},
      {"ring-32", directed_ring(32)},
      {"ring-64", directed_ring(64)},
  };
  for (const auto& [label, g] : full_runs) {
    const ProtocolRun run = run_verified(label, g, /*root=*/0);
    table.row()
        .cell(label)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(static_cast<std::uint64_t>(run.result.stats.ticks))
        .cell(run.result.stats.messages)
        .cell(run.result.stats.node_steps)
        .cell(run.result.stats.avg_active(), 3);
  }

  // The dense-active-set workload: a truncated ccc-160 flood — a sample of
  // the engine under snake floods, not a map, so its row reports the engine
  // stats at the 20000-tick cutoff.
  {
    const PortGraph g = cube_connected_cycles(5);
    GtdMachine::Config cfg;
    Transcript t;
    cfg.transcript = &t;
    GtdEngine engine(g, 0, cfg, /*threads=*/1);
    engine.schedule(0);
    engine.run(20000);
    table.row()
        .cell("ccc-160-dense@20000")
        .cell(static_cast<std::uint64_t>(g.num_nodes()))
        .cell(static_cast<std::uint64_t>(diameter(g)))
        .cell(static_cast<std::uint64_t>(g.num_wires()))
        .cell(static_cast<std::uint64_t>(engine.stats().ticks))
        .cell(engine.stats().messages)
        .cell(engine.stats().node_steps)
        .cell(engine.stats().avg_active(), 3);
  }

  table.print(std::cout);
  json.add("engine_workloads", table);
}

void print_table() {
  BenchJson json("E1");
  const std::vector<std::string> families = {
      "dering", "biring",   "debruijn", "shufflex", "butterfly",
      "kautz",  "treeloop", "ccc",      "torus",    "random3"};
  Table table({"family", "N", "D", "E", "ticks", "N*D", "ticks/(N*D)",
               "messages"});
  table.set_caption(
      "E1 (Lemma 4.4): protocol running time vs the O(N*D) bound");

  // The whole sweep runs concurrently through the campaign runner; each row
  // is one deterministic job, so the model-time numbers are unchanged.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      fit_data;
  for (const runner::JobResult& run :
       run_family_sweep(families, default_sizes())) {
    const std::string& fam = run.spec.family;
    const double nd = static_cast<double>(run.n) * run.d;
    table.row()
        .cell(fam)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(static_cast<std::uint64_t>(run.ticks))
        .cell(nd, 0)
        .cell(static_cast<double>(run.ticks) / nd, 2)
        .cell(run.messages);
    fit_data[fam].first.push_back(nd);
    fit_data[fam].second.push_back(static_cast<double>(run.ticks));
  }
  table.print(std::cout);
  json.add("scaling", table);

  std::cout << "\nPer-family fits of ticks = a * (N*D)^b  (b ~= 1 supports "
               "the O(N*D) claim):\n";
  Table fits({"family", "exponent b", "prefactor a", "R^2"});
  for (const auto& [fam, xy] : fit_data) {
    if (xy.first.size() < 2) continue;
    const LinearFit f = fit_power_law(xy.first, xy.second);
    fits.row().cell(fam).cell(f.slope, 3).cell(f.intercept, 2).cell(f.r2, 4);
  }
  fits.print(std::cout);
  json.add("fits", fits);

  std::cout << "\n";
  print_model_time_table(json);
  write_tables(json);
}

}  // namespace

int main() {
  print_table();
  return 0;
}
