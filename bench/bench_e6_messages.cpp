// Experiment E6 — message complexity (implied by the paper's model; not
// stated as a theorem). Every RCA floods the whole network with growing
// snakes, so the protocol transmits Theta(E * len) characters per RCA and
// O(E) RCAs overall. We tabulate characters per family and fit the growth
// exponent against E*N*D to document the traffic cost of finite-state
// mapping.
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "support/stats.hpp"

namespace {

using namespace dtop;
using namespace dtop::bench;

void print_table() {
  BenchJson json("E6");
  const std::vector<std::string> families = {"dering", "debruijn", "treeloop",
                                             "torus", "random3"};
  Table table({"family", "N", "D", "E", "characters", "chars/tick",
               "chars/(E*N*D)"});
  table.set_caption("E6: character traffic of the GTD protocol");

  // Table rows come from one concurrent campaign through src/runner; the
  // model-time numbers per row are unchanged from the sequential loop.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      fit;
  for (const runner::JobResult& run :
       run_family_sweep(families, {16, 32, 64, 96})) {
    const std::string& fam = run.spec.family;
    const double chars = static_cast<double>(run.messages);
    const double end = static_cast<double>(run.e) * run.n * run.d;
    table.row()
        .cell(fam)
        .cell(static_cast<std::uint64_t>(run.n))
        .cell(static_cast<std::uint64_t>(run.d))
        .cell(static_cast<std::uint64_t>(run.e))
        .cell(run.messages)
        .cell(chars / static_cast<double>(run.ticks), 2)
        .cell(chars / end, 3);
    fit[fam].first.push_back(static_cast<double>(run.n));
    fit[fam].second.push_back(chars);
  }
  table.print(std::cout);
  json.add("messages", table);

  std::cout << "\nGrowth exponents (characters ~ N^b per family):\n";
  Table fits({"family", "exponent b", "R^2"});
  for (const auto& [fam, xy] : fit) {
    if (xy.first.size() < 2) continue;
    const LinearFit f = fit_power_law(xy.first, xy.second);
    fits.row().cell(fam).cell(f.slope, 2).cell(f.r2, 4);
  }
  fits.print(std::cout);
  json.add("fits", fits);
  write_tables(json);
  std::cout << "\nFlooding every RCA makes traffic super-quadratic in N "
               "(b ~ 2-3 depending on D's growth) — the price of "
               "constant-size messages; compare E7 for the baselines.\n";
}

}  // namespace

int main() {
  print_table();
  return 0;
}
