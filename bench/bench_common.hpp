// Shared helpers for the experiment harness. Each bench binary regenerates
// one experiment from EXPERIMENTS.md: it prints the paper-style table on
// stdout and (where useful) registers google-benchmark timings. The tables
// are computed from *model time* (global clock ticks), which is exact and
// machine-independent; google-benchmark covers wall-clock throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/gtd.hpp"
#include "graph/analysis.hpp"
#include "graph/families.hpp"
#include "runner/runner.hpp"
#include "support/table.hpp"
#include "trace/span_collector.hpp"

namespace dtop::bench {

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

// Standard size sweep used by several experiments. Honors the
// DTOP_BENCH_QUICK environment variable (any non-empty value): CI sets it
// to trim the sweep so the JSON artifacts stay cheap to regenerate.
std::vector<NodeId> default_sizes();

// Machine-readable companion to the printed tables: accumulates an
// experiment's tables and writes them as BENCH_<exp>.json — the same
// model-time numbers as the human tables (numeric cells emitted as JSON
// numbers) plus an "env" block (compiler, build type, hardware threads).
// The file lands in $DTOP_BENCH_JSON_DIR if set, else the working
// directory; CI uploads the files as artifacts, giving every experiment a
// perf trajectory over time.
class BenchJson {
 public:
  explicit BenchJson(std::string exp);  // e.g. "E1"

  void add(const std::string& name, const Table& table);

  // Writes BENCH_<exp>.json and prints the path to `diag`.
  void write(std::ostream& diag) const;

 private:
  std::string exp_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace dtop::bench
