// Structured emitters: campaign results, shared by `dtopctl sweep` and the
// bench binaries, and the BENCH_<exp>.json table files written by the
// benches and `dtopctl loadgen`.
//
// Both campaign formats are deterministic functions of the job results: wall
// clock fields are excluded unless `timing` is set, so a campaign emitted at
// --threads 1 and --threads 8 is byte-identical.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/runner.hpp"
#include "support/table.hpp"

namespace dtop::runner {

struct EmitOptions {
  bool timing = false;  // include per-job and total wall_ms (non-deterministic)
};

// One JSON object: {"campaign": {...}, "jobs": [...], "summary": {...}}.
void write_json(std::ostream& os, const CampaignResult& result,
                const EmitOptions& opt = {});

// RFC-4180-style CSV with a header row; `detail` is quoted.
void write_csv(std::ostream& os, const CampaignResult& result,
               const EmitOptions& opt = {});

// The repo's one JSON string escaper: `"`, `\`, \n, \r and \t get their
// short escapes, other bytes below 0x20 become \u00xx (lowercase hex), and
// every other byte (0x7F and UTF-8 included) is copied verbatim.
// `json_escape_append` appends the escaped text to `out`, copying each run of
// plain bytes in one append.
void json_escape_append(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);

// The repo's one BENCH-table writer. Accumulates an experiment's tables and
// writes them as BENCH_<exp>.json: the same numbers as the printed tables
// (a cell that parses as a double is a JSON number, anything else an escaped
// string) plus an "env" block (compiler, build type, hardware threads, and
// whether the run was the trimmed quick sweep). tools/bench_compare.py diffs
// these files against bench/baselines.
class BenchJson {
 public:
  explicit BenchJson(std::string exp) : exp_(std::move(exp)) {}  // e.g. "E1"

  void add(const std::string& name, const Table& table) {
    tables_.emplace_back(name, table);
  }

  // Writes <dir>/BENCH_<exp>.json (the working directory when `dir` is
  // empty) and prints the path to `diag`. Throws Error if the file cannot
  // be opened.
  void write(const std::string& dir, bool quick, std::ostream& diag) const;

 private:
  std::string exp_;
  std::vector<std::pair<std::string, Table>> tables_;
};

}  // namespace dtop::runner
