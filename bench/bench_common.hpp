// Shared helpers for the experiment harness. Each bench binary is a plain
// executable that takes no arguments and regenerates one experiment from
// EXPERIMENTS.md: it prints the paper-style tables on stdout and writes them
// as BENCH_<exp>.json. The tables are computed from *model time* (global
// clock ticks), which is exact and machine-independent; only E10 also
// reports wall-clock columns. The `oracle` ctest runs every bench in quick
// mode and diffs its JSON against bench/baselines at tolerance 0.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/gtd.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "runner/emit.hpp"
#include "runner/runner.hpp"
#include "support/table.hpp"
#include "trace/span_collector.hpp"

namespace dtop::bench {

using runner::BenchJson;

// Runs the protocol and returns the result together with the ground-truth
// quantities the tables report. Aborts loudly if the run is not exact —
// benchmark numbers from a broken protocol would be meaningless.
struct ProtocolRun {
  std::string label;
  NodeId n = 0;
  std::uint32_t d = 0;       // diameter
  std::uint32_t e = 0;       // wires
  GtdResult result;
};

ProtocolRun run_verified(const std::string& label, const PortGraph& g,
                         NodeId root, const GtdOptions& opt = {});

// Runs a (families x sizes) sweep through the campaign runner (src/runner):
// one single-threaded protocol job per point, executed concurrently across
// the host's cores. Jobs are deterministic functions of their spec, so the
// model-time numbers are identical to a hand-rolled sequential loop. Aborts
// loudly unless every job verified exact. Consecutive duplicate (family, N)
// rows — size hints snapping to the same instance in pow2 families — are
// dropped, matching the tables' historical skip logic.
std::vector<runner::JobResult> run_family_sweep(
    const std::vector<std::string>& families, const std::vector<NodeId>& sizes,
    std::uint64_t seed = 1);

// True when DTOP_BENCH_QUICK is set to a non-empty value: the benches then
// run their trimmed sweeps, which bench/baselines and the oracle use.
bool quick_mode();

// Standard size sweep used by several experiments, trimmed in quick_mode().
std::vector<NodeId> default_sizes();

// Writes the experiment's BENCH_<exp>.json into $DTOP_BENCH_JSON_DIR (the
// working directory when unset), labelled with quick_mode().
void write_tables(const runner::BenchJson& json);

}  // namespace dtop::bench
