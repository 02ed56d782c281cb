// Corpus analytics: scan a directory of recorded runs and aggregate them
// per distinct problem instance.
//
// The runner's --trace-dir sweeps, dtopd's failed-request captures, and
// ad-hoc `dtopctl run --record` invocations all accumulate .dtrace files;
// this module is the offline "what is in this pile" pass behind `dtopctl
// trace corpus`. Files are grouped by the rooted canonical hash of the
// embedded network (graph/canonical.hpp), so two recordings of relabelled
// copies of the same network land in the same group — the dedupe the
// result cache already applies to live runs, applied to the warehouse.
// Per group it aggregates event-kind counts and obs::Histogram
// distributions of run length and RCA/BCA span durations.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

// All scanned recordings of one rooted network (up to relabelling).
struct CorpusGroup {
  std::uint64_t canon_hash = 0;  // canonical_hash(header.graph, header.root)
  NodeId nodes = 0;
  int delta = 0;
  NodeId root = 0;

  std::uint64_t runs = 0;
  std::uint64_t violation_runs = 0;  // traces without a terminal kRunEnd
  std::uint64_t total_events = 0;
  std::array<std::uint64_t, kNumTraceEventKinds> kind_counts{};
  obs::Histogram run_ticks;  // final tick of each cleanly ended run
  obs::Histogram rca_ticks;  // closed RCA span durations, all runs pooled
  obs::Histogram bca_ticks;  // closed BCA span durations
  std::vector<std::string> files;
};

struct CorpusFailure {
  std::string path;
  std::string error;
};

struct CorpusSummary {
  std::uint64_t files_scanned = 0;  // .dtrace files found, readable or not
  std::vector<CorpusGroup> groups;  // after finalize: most runs first
  std::vector<CorpusFailure> failures;
};

// Folds one already-materialized trace into the summary. Throws Error when
// the embedded network is unusable (e.g. nodes unreachable from the root,
// which canonical hashing rejects) — scan_corpus turns that into a
// CorpusFailure entry.
void corpus_add(CorpusSummary& s, const std::string& path,
                const RecordedTrace& t);

// Orders groups (most runs first, hash as tiebreak) and each group's file
// list; scan_corpus calls it, incremental corpus_add users call it once at
// the end.
void corpus_finalize(CorpusSummary& s);

// Scans `dir` recursively for *.dtrace files, folding each into the
// summary; unreadable, corrupt or retired-format (DTR1) files become
// failures, not errors, so one bad capture cannot hide the rest of the
// warehouse. Throws Error when `dir` itself is not a directory.
CorpusSummary scan_corpus(const std::string& dir);

}  // namespace dtop::trace
