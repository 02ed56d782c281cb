// The `dtopctl trace` subcommand family: record a protocol run as a
// self-contained binary trace, then inspect, diff, replay, edit, and
// aggregate trace files.
//
//   trace record    run the protocol (optionally perturbed by --scenario
//                   fault edits) with a recorder attached; write the trace.
//   trace inspect   print a trace's header, per-kind event counts, and an
//                   event listing window (wrongpath-bench style --start/--max).
//                   DTR2 files serve windows through the seek index.
//   trace diff      compare two traces event-by-event; pinpoint the first
//                   divergent event and its tick.
//   trace replay    re-execute the run a trace describes and hard-fail on
//                   the first divergence from the recording.
//   trace extract   cut an event/tick window into its own (viewing) trace.
//   trace splice    graft a donor trace's injections onto the base run and
//                   re-record, so the output replays clean.
//   trace overwrite replace the base run's injections in a window with
//                   --scenario ones and re-record.
//   trace corpus    scan a directory of .dtrace files; aggregate per
//                   distinct instance (deduped by rooted canonical hash).
#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "cli/cli.hpp"
#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "core/gtd.hpp"
#include "graph/canonical.hpp"
#include "runner/scenario.hpp"
#include "support/table.hpp"
#include "trace/container.hpp"
#include "trace/corpus.hpp"
#include "trace/span_collector.hpp"
#include "trace/surgery.hpp"
#include "trace/trace_diff.hpp"
#include "trace/trace_io.hpp"

namespace dtop::cli {
namespace {

// The per-span summary `trace inspect` prints for a --spans recording.
// Aggregates cover only closed spans; a span still in flight when the
// stream ended (violation or budget-cut trace) is listed as "open" and
// kept out of the duration statistics.
void print_span_tables(const trace::SpanCollector& spans, bool summary_only,
                       std::ostream& out) {
  const std::vector<trace::SpanCollector::Span>* lanes[] = {&spans.rca(),
                                                            &spans.bca()};
  const char* lane_names[] = {"RCA", "BCA"};
  if (spans.rca().empty() && spans.bca().empty() &&
      spans.erasures().empty()) {
    return;  // not a --spans recording: nothing to summarize
  }

  Table agg({"kind", "spans", "open", "min_ticks", "mean_ticks",
             "max_ticks"});
  agg.set_caption("span durations (closed spans only; " +
                  std::to_string(spans.erasures().size()) + " erasures)");
  for (int lane = 0; lane < 2; ++lane) {
    std::uint64_t closed = 0, open = 0;
    Tick min = 0, max = 0;
    std::uint64_t total = 0;
    for (const auto& s : *lanes[lane]) {
      if (!s.closed) {
        ++open;
        continue;
      }
      const Tick d = s.duration();
      min = closed == 0 ? d : std::min(min, d);
      max = std::max(max, d);
      total += static_cast<std::uint64_t>(d);
      ++closed;
    }
    auto r = agg.row();
    r.cell(lane_names[lane]).cell(closed).cell(open);
    if (closed > 0) {
      r.cell(static_cast<std::uint64_t>(min))
          .cell(static_cast<double>(total) / static_cast<double>(closed), 1)
          .cell(static_cast<std::uint64_t>(max));
    } else {
      r.cell("-").cell("-").cell("-");
    }
  }
  agg.print(out);

  if (summary_only) return;
  Table t({"kind", "node", "start", "end", "ticks", "note"});
  t.set_caption("per-span listing");
  for (int lane = 0; lane < 2; ++lane) {
    for (const auto& s : *lanes[lane]) {
      auto r = t.row();
      r.cell(lane_names[lane])
          .cell(static_cast<std::uint64_t>(s.node))
          .cell(static_cast<std::uint64_t>(s.start));
      if (s.closed) {
        r.cell(static_cast<std::uint64_t>(s.end))
            .cell(static_cast<std::uint64_t>(s.duration()));
      } else {
        r.cell("-").cell("-");
      }
      r.cell(!s.closed ? "open" : (s.forward ? "forward" : ""));
    }
  }
  t.print(out);
}

trace::RecordedTrace load_trace(const std::string& path) {
  return with_input(path,
                    [](std::istream& is) { return trace::read_trace(is); });
}

trace::Dtr2Options make_dtr2_options(const TraceOptions& opt) {
  trace::Dtr2Options d;
  if (!opt.codec.empty()) {
    for (int i = 0; i < trace::kNumTraceCodecs; ++i) {
      const auto c = static_cast<trace::TraceCodec>(i);
      if (opt.codec == trace::to_cstr(c)) d.codec = c;
    }
  }
  return d;
}

// Writes `t` to opt.out as DTR2 with the selected --codec.
void write_trace_output(const TraceOptions& opt, std::ostream& fallback,
                        const trace::RecordedTrace& t) {
  with_output(opt.out, fallback, [&](std::ostream& os) {
    trace::write_trace_dtr2(os, t, make_dtr2_options(opt));
  });
}

// Maps the surgery flags onto an event-index window over `events`.
trace::EventRange resolve_range(const TraceOptions& opt,
                                const std::vector<trace::TraceEvent>& events) {
  if (opt.from_tick >= 0 || opt.to_tick >= 0) {
    const Tick from = opt.from_tick >= 0 ? opt.from_tick : 0;
    const Tick to =
        opt.to_tick >= 0 ? opt.to_tick : std::numeric_limits<Tick>::max();
    return trace::resolve_tick_range(events, from, to);
  }
  trace::EventRange r;
  if (opt.from_event >= 0) {
    r.begin = static_cast<std::uint64_t>(opt.from_event);
  }
  if (opt.to_event >= 0) r.end = static_cast<std::uint64_t>(opt.to_event);
  return r;
}

int record_command(const TraceOptions& opt, std::ostream& out,
                   std::ostream& err) {
  std::string label;
  const PortGraph g = load_or_make_graph(opt.spec, &label);
  if (opt.root >= g.num_nodes()) {
    err << "error: --root " << opt.root << " out of range (network has "
        << g.num_nodes() << " nodes)\n";
    return 2;
  }

  trace::TraceRecorder rec;
  GtdOptions gopt;
  gopt.protocol = runner::make_engine_config(opt.config).protocol;
  gopt.num_threads = opt.spans ? 1 : opt.threads;
  gopt.max_ticks = opt.max_ticks;
  gopt.trace = &rec;
  if (opt.spans) gopt.observer = &rec;
  for (const runner::FaultScenario& sc : opt.scenarios) {
    if (sc.kind == runner::FaultScenario::Kind::kBudget) {
      gopt.max_ticks = gopt.max_ticks > 0 ? std::min(gopt.max_ticks, sc.at)
                                          : sc.at;
    } else if (sc.is_injection()) {
      gopt.injections.push_back(
          runner::make_injection(g, opt.spec.seed, sc));
    }
  }

  std::string failure;
  RunStatus status = RunStatus::kTickBudget;
  Tick ticks = 0;
  try {
    const GtdResult res = run_gtd(g, opt.root, gopt);
    status = res.status;
    ticks = res.stats.ticks;
  } catch (const Error& e) {
    // A protocol violation is a legitimate thing to record: the partial
    // trace (no terminal record) is the post-mortem artifact.
    failure = e.what();
  }

  const trace::RecordedTrace recorded = rec.take();
  write_trace_output(opt, out, recorded);

  if (!opt.out.empty() && opt.out != "-") {
    out << "Recorded '" << label << "' (" << recorded.events.size()
        << " events";
    if (failure.empty()) {
      out << ", " << ticks << " ticks, "
          << (status == RunStatus::kTerminated ? "terminated" : "tick budget")
          << ") to " << opt.out << "\n";
    } else {
      out << ", violation trace) to " << opt.out << "\n";
    }
  }
  if (!failure.empty()) {
    err << "error: run died in a protocol violation (trace kept): " << failure
        << "\n";
    return 1;
  }
  return status == RunStatus::kTerminated ? 0 : 1;
}

int inspect_command(const TraceOptions& opt, std::ostream& out,
                    std::ostream& err) {
  trace::TraceFile f = with_input(
      opt.trace_file, [](std::istream& is) { return trace::TraceFile(is); });
  const PortGraph& g = f.header().graph;

  out << "Trace " << opt.trace_file << " (DTR2/"
      << trace::to_cstr(f.file_codec())
      << (f.indexed() ? ", indexed, " : ", scan recovery, ")
      << f.num_blocks() << (f.num_blocks() == 1 ? " block" : " blocks")
      << "): " << g.num_nodes() << " processors, " << g.num_wires()
      << " wires, delta=" << static_cast<int>(g.delta())
      << ", root=" << f.header().root
      << ", delays=" << f.header().config.snake_delay << "/"
      << f.header().config.loop_delay << "/"
      << f.header().config.token_delay << "\n";

  // Counts and the final tick come from the DTR2 footer when present —
  // no event block is decoded for them.
  out << f.num_events() << " events";
  for (int k = 0; k < trace::kNumTraceEventKinds; ++k) {
    const std::uint64_t n =
        f.kind_counts()[static_cast<std::size_t>(k)];
    if (n > 0) {
      out << ", " << to_cstr(static_cast<trace::TraceEventKind>(k)) << "="
          << n;
    }
  }
  out << "\n";

  if (f.num_events() == 0) {
    out << "(empty trace)\n";
    return 0;
  }
  const std::vector<trace::TraceEvent> tail =
      f.events_in_range(f.num_events() - 1, 1);
  const trace::TraceEvent& last = tail.front();
  if (last.kind == trace::TraceEventKind::kRunEnd) {
    out << "Run ended at tick " << last.tick << " ("
        << (last.a == static_cast<std::uint32_t>(RunStatus::kTerminated)
                ? "terminated"
                : "tick budget exhausted")
        << ")\n";
  } else {
    out << "No run-end record: the run died mid-tick (violation trace); "
           "last event at tick "
        << last.tick << "\n";
  }

  // Span derivation needs the whole stream, so it runs only when no window
  // was requested — a --start/--max read stays lazy and decodes just the
  // blocks it touches. The derivation doubles as a serialization audit and
  // hard-fails on overlapping spans, which a trace of a *faulted* run can
  // legitimately contain; inspecting broken traces is this tool's whole
  // point, so note the inconsistency instead of dying on it.
  const bool windowed = opt.start > 0 || opt.max_events > 0;
  if (!windowed) {
    try {
      const trace::RecordedTrace t = f.read_all();
      const trace::SpanCollector spans = trace::collect_spans(t.events);
      print_span_tables(spans, opt.summary, out);
    } catch (const Error& e) {
      out << "Span stream inconsistent (protocol serialization violated): "
          << e.what() << "\n";
    }
  }

  if (!opt.summary) {
    const std::uint64_t total = f.num_events();
    const std::uint64_t begin = std::min<std::uint64_t>(opt.start, total);
    // Saturating window arithmetic: `begin + opt.max_events` can wrap for a
    // huge --max, which used to make the clamp select an empty window.
    std::uint64_t count = total - begin;
    if (opt.max_events > 0 && opt.max_events < count) count = opt.max_events;
    const std::vector<trace::TraceEvent> evs = f.events_in_range(begin, count);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      out << "  [" << (begin + i) << "] " << to_string(evs[i]) << "\n";
    }
    if (begin + count < total) {
      out << "  ... " << (total - begin - count) << " more events\n";
    }
  }
  (void)err;
  return 0;
}

int diff_command(const TraceOptions& opt, std::ostream& out,
                 std::ostream& err) {
  const trace::RecordedTrace a = load_trace(opt.trace_file);
  const trace::RecordedTrace b = load_trace(opt.trace_b);
  const trace::TraceDiff d = trace::diff_traces(a, b);
  out << d.detail << "\n";
  (void)err;
  return d.identical ? 0 : 1;
}

int replay_command(const TraceOptions& opt, std::ostream& out,
                   std::ostream& err) {
  const trace::RecordedTrace t = load_trace(opt.trace_file);
  const ReplayResult r = replay_gtd(t, opt.threads);
  if (r.ok) {
    out << "Replay OK: " << t.events.size()
        << " events reproduced byte-identically (" << r.stats.ticks
        << " ticks)\n";
    return 0;
  }
  err << "replay FAILED: " << r.detail << "\n";
  return 1;
}

int extract_command(const TraceOptions& opt, std::ostream& out,
                    std::ostream& err) {
  const trace::RecordedTrace t = load_trace(opt.trace_file);
  const trace::EventRange r = resolve_range(opt, t.events);
  const trace::RecordedTrace cut = trace::extract_range(t, r);
  write_trace_output(opt, out, cut);
  if (!opt.out.empty() && opt.out != "-") {
    out << "Extracted " << cut.events.size() << " of " << t.events.size()
        << " events to " << opt.out << "\n";
  }
  (void)err;
  return 0;
}

// Shared tail of splice/overwrite: re-run the edited injection set under a
// fresh recorder and write the result. The output is a genuine recording —
// it replays clean — rather than a stitched event stream that never ran.
int rerecord_and_write(const TraceOptions& opt, const trace::TraceHeader& base,
                       std::vector<trace::TraceInjection> injections,
                       std::ostream& out, std::ostream& err) {
  const RerecordResult rr = rerecord_gtd(base, std::move(injections));
  write_trace_output(opt, out, rr.trace);
  if (!opt.out.empty() && opt.out != "-") {
    out << "Re-recorded " << rr.trace.events.size() << " events ("
        << rr.injections_applied << " injections applied) to " << opt.out
        << "\n";
  }
  if (rr.violation) {
    err << "error: edited run died in a protocol violation (trace kept): "
        << rr.detail << "\n";
    return 1;
  }
  return rr.status == RunStatus::kTerminated ? 0 : 1;
}

int splice_command(const TraceOptions& opt, std::ostream& out,
                   std::ostream& err) {
  const trace::RecordedTrace base = load_trace(opt.trace_file);
  const trace::RecordedTrace donor = load_trace(opt.donor);
  if (canonical_hash(donor.header.graph, donor.header.root) !=
      canonical_hash(base.header.graph, base.header.root)) {
    err << "warning: donor records a different instance (graph/root "
           "mismatch); grafted injections may not be meaningful\n";
  }
  const trace::EventRange r = resolve_range(opt, donor.events);
  const std::vector<trace::TraceInjection> grafted =
      trace::injections_in_range(donor, r);
  for (const trace::TraceInjection& inj : grafted) {
    if (inj.wire >= base.header.graph.wire_slots()) {
      err << "error: donor injection at tick " << inj.at << " targets wire "
          << inj.wire << ", out of range for the base network ("
          << base.header.graph.wire_slots() << " wire slots)\n";
      return 2;
    }
  }
  std::vector<trace::TraceInjection> merged = trace::merge_injections(
      trace::injections_in_range(base, trace::EventRange{}), grafted);
  return rerecord_and_write(opt, base.header, std::move(merged), out, err);
}

int overwrite_command(const TraceOptions& opt, std::ostream& out,
                      std::ostream& err) {
  const trace::RecordedTrace base = load_trace(opt.trace_file);
  const trace::EventRange r = resolve_range(opt, base.events);
  std::vector<trace::TraceInjection> kept =
      trace::injections_outside_range(base, r);
  const std::size_t dropped = trace::injections_in_range(base, r).size();
  std::vector<trace::TraceInjection> added;
  for (const runner::FaultScenario& sc : opt.scenarios) {
    if (sc.is_injection()) {
      added.push_back(
          runner::make_injection(base.header.graph, opt.seed, sc));
    }
  }
  std::stable_sort(added.begin(), added.end(),
                   [](const trace::TraceInjection& a,
                      const trace::TraceInjection& b) { return a.at < b.at; });
  out << "Overwriting window: dropped " << dropped << " recorded injections, "
      << "adding " << added.size() << "\n";
  std::vector<trace::TraceInjection> merged =
      trace::merge_injections(std::move(kept), added);
  return rerecord_and_write(opt, base.header, std::move(merged), out, err);
}

std::string hex16(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

// One histogram cell: a quantile over recorded samples, "-" when empty.
std::string quantile_cell(const obs::Histogram& h, double p) {
  if (h.count() == 0) return "-";
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << h.quantile(p);
  return os.str();
}

int corpus_command(const TraceOptions& opt, std::ostream& out,
                   std::ostream& err) {
  const trace::CorpusSummary s = trace::scan_corpus(opt.corpus_dir);
  out << "Corpus " << opt.corpus_dir << ": " << s.files_scanned
      << " trace files, " << s.groups.size() << " distinct instances, "
      << s.failures.size() << " unreadable\n";

  if (!s.groups.empty()) {
    Table t({"instance", "nodes", "delta", "root", "runs", "violations",
             "events", "ticks_p50", "ticks_max", "rca_p50", "bca_p50"});
    t.set_caption("per-instance aggregates (deduped by canonical hash)");
    for (const trace::CorpusGroup& g : s.groups) {
      t.row()
          .cell(hex16(g.canon_hash))
          .cell(static_cast<std::uint64_t>(g.nodes))
          .cell(static_cast<std::uint64_t>(g.delta))
          .cell(static_cast<std::uint64_t>(g.root))
          .cell(static_cast<std::uint64_t>(g.runs))
          .cell(static_cast<std::uint64_t>(g.violation_runs))
          .cell(g.total_events)
          .cell(quantile_cell(g.run_ticks, 50))
          .cell(g.run_ticks.count() ? std::to_string(g.run_ticks.max()) : "-")
          .cell(quantile_cell(g.rca_ticks, 50))
          .cell(quantile_cell(g.bca_ticks, 50));
    }
    t.print(out);
  }
  for (const trace::CorpusFailure& f : s.failures) {
    err << "corpus: unreadable " << f.path << ": " << f.error << "\n";
  }
  return s.failures.empty() ? 0 : 1;
}

}  // namespace

TraceOptions parse_trace_args(const std::vector<std::string>& args) {
  TraceOptions opt;
  static constexpr const char* kActions =
      "record inspect diff replay extract splice overwrite corpus";
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    throw UsageError(std::string("'trace' needs an action: ") + kActions);
  }
  opt.action = args[0];
  if (opt.action != "record" && opt.action != "inspect" &&
      opt.action != "diff" && opt.action != "replay" &&
      opt.action != "extract" && opt.action != "splice" &&
      opt.action != "overwrite" && opt.action != "corpus") {
    throw UsageError("unknown trace action '" + opt.action + "' (known: " +
                     kActions + ")");
  }
  const bool surgery = opt.action == "extract" || opt.action == "splice" ||
                       opt.action == "overwrite";
  const bool writes_trace = opt.action == "record" || surgery;
  const bool reads_trace = opt.action == "inspect" ||
                           opt.action == "replay" || surgery;

  const std::vector<std::string> rest(args.begin() + 1, args.end());
  FlagWalker w(rest);
  while (w.next()) {
    const std::string& f = w.flag();
    if (opt.action == "record" && parse_spec_flag(w, opt.spec)) continue;
    if (opt.action == "record" && f == "--root") {
      opt.root = parse_int_as<NodeId>(f, w.value());
    } else if (f == "--threads" &&
               (opt.action == "record" || opt.action == "replay")) {
      opt.threads = parse_int_as<int>(f, w.value());
      if (opt.threads < 1) throw UsageError("--threads must be >= 1");
    } else if (opt.action == "record" && f == "--max-ticks") {
      opt.max_ticks = parse_int_as<std::int64_t>(f, w.value());
    } else if (opt.action == "record" && f == "--config") {
      opt.config = w.value();
      try {
        (void)runner::make_engine_config(opt.config);
      } catch (const runner::SpecError& e) {
        throw UsageError(std::string(e.what()));
      }
    } else if (f == "--scenario" &&
               (opt.action == "record" || opt.action == "overwrite")) {
      try {
        const runner::FaultScenario sc = runner::make_scenario(w.value());
        if (opt.action == "overwrite" && !sc.is_injection() &&
            sc.kind != runner::FaultScenario::Kind::kNone) {
          throw UsageError("'trace overwrite' takes injection scenarios "
                           "only (kill/unmark/dfs)");
        }
        if (sc.kind != runner::FaultScenario::Kind::kNone) {
          opt.scenarios.push_back(sc);
        }
      } catch (const runner::SpecError& e) {
        throw UsageError(std::string(e.what()));
      }
    } else if (opt.action == "record" && f == "--spans") {
      opt.spans = true;
    } else if (writes_trace && f == "--out") {
      opt.out = w.value();
    } else if (writes_trace && f == "--codec") {
      opt.codec = w.value();
      trace::TraceCodec c = trace::TraceCodec::kRaw;
      bool known = false;
      for (int i = 0; i < trace::kNumTraceCodecs; ++i) {
        if (opt.codec == trace::to_cstr(static_cast<trace::TraceCodec>(i))) {
          c = static_cast<trace::TraceCodec>(i);
          known = true;
        }
      }
      if (!known) {
        throw UsageError("unknown --codec '" + opt.codec +
                         "' (known: raw dlz zstd)");
      }
      if (!trace::codec_available(c)) {
        throw UsageError("--codec " + opt.codec +
                         " is not available in this build");
      }
    } else if (reads_trace && f == "--trace") {
      opt.trace_file = w.value();
    } else if (opt.action == "diff" && f == "--a") {
      opt.trace_file = w.value();
    } else if (opt.action == "diff" && f == "--b") {
      opt.trace_b = w.value();
    } else if (opt.action == "inspect" && f == "--start") {
      opt.start = parse_u64(f, w.value());
    } else if (opt.action == "inspect" && f == "--max") {
      opt.max_events = parse_u64(f, w.value());
    } else if (opt.action == "inspect" && f == "--summary") {
      opt.summary = true;
    } else if (surgery && f == "--from-tick") {
      opt.from_tick = parse_int_as<std::int64_t>(f, w.value());
    } else if (surgery && f == "--to-tick") {
      opt.to_tick = parse_int_as<std::int64_t>(f, w.value());
    } else if (surgery && f == "--from-event") {
      opt.from_event = parse_int_as<std::int64_t>(f, w.value());
    } else if (surgery && f == "--to-event") {
      opt.to_event = parse_int_as<std::int64_t>(f, w.value());
    } else if (opt.action == "splice" && f == "--donor") {
      opt.donor = w.value();
    } else if (opt.action == "overwrite" && f == "--seed") {
      opt.seed = parse_u64(f, w.value());
    } else if (opt.action == "corpus" && f == "--dir") {
      opt.corpus_dir = w.value();
    } else {
      throw UsageError("unknown flag '" + f + "' for 'trace " + opt.action +
                       "'");
    }
  }

  if (opt.action == "record") {
    check_spec(opt.spec);
    if (opt.out.empty()) {
      throw UsageError("'trace record' needs --out <file>");
    }
    if (opt.spans && opt.threads > 1) {
      throw UsageError("--spans requires --threads 1 (protocol observers "
                       "are single-threaded)");
    }
  } else if (opt.action == "diff") {
    if (opt.trace_file.empty() || opt.trace_b.empty()) {
      throw UsageError("'trace diff' needs --a <file> and --b <file>");
    }
  } else if (opt.action == "corpus") {
    if (opt.corpus_dir.empty()) {
      throw UsageError("'trace corpus' needs --dir <directory>");
    }
  } else if (opt.trace_file.empty()) {
    throw UsageError("'trace " + opt.action + "' needs --trace <file>");
  }
  if (surgery) {
    if (opt.out.empty()) {
      throw UsageError("'trace " + opt.action + "' needs --out <file>");
    }
    const bool tick_range = opt.from_tick >= 0 || opt.to_tick >= 0;
    const bool event_range = opt.from_event >= 0 || opt.to_event >= 0;
    if (tick_range && event_range) {
      throw UsageError("give a tick range or an event range, not both");
    }
    if (opt.from_tick >= 0 && opt.to_tick >= 0 &&
        opt.from_tick > opt.to_tick) {
      throw UsageError("--from-tick must be <= --to-tick");
    }
    if (opt.from_event >= 0 && opt.to_event >= 0 &&
        opt.from_event > opt.to_event) {
      throw UsageError("--from-event must be <= --to-event");
    }
    if (opt.action == "splice" && opt.donor.empty()) {
      throw UsageError("'trace splice' needs --donor <file>");
    }
    if (opt.action == "overwrite" &&
        std::none_of(opt.scenarios.begin(), opt.scenarios.end(),
                     [](const runner::FaultScenario& sc) {
                       return sc.is_injection();
                     })) {
      throw UsageError("'trace overwrite' needs at least one injection "
                       "--scenario (kill/unmark/dfs)");
    }
  }
  return opt;
}

int trace_command(const TraceOptions& opt, std::ostream& out,
                  std::ostream& err) {
  if (opt.action == "record") return record_command(opt, out, err);
  if (opt.action == "inspect") return inspect_command(opt, out, err);
  if (opt.action == "diff") return diff_command(opt, out, err);
  if (opt.action == "extract") return extract_command(opt, out, err);
  if (opt.action == "splice") return splice_command(opt, out, err);
  if (opt.action == "overwrite") return overwrite_command(opt, out, err);
  if (opt.action == "corpus") return corpus_command(opt, out, err);
  return replay_command(opt, out, err);
}

}  // namespace dtop::cli
