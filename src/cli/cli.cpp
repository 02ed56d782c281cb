#include "cli/cli.hpp"

#include <algorithm>
#include <iostream>

#include "cli/cli_io.hpp"
#include "cli/flags.hpp"
#include "core/gtd.hpp"
#include "core/map_io.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "graph/permute.hpp"
#include "support/rng.hpp"

namespace dtop::cli {

bool parse_spec_flag(FlagWalker& w, GraphSpec& spec) {
  const std::string& f = w.flag();
  if (f == "--family") {
    spec.family = w.value();
    const auto names = family_names();
    if (std::find(names.begin(), names.end(), spec.family) == names.end()) {
      std::string known;
      for (const std::string& n : names) known += (known.empty() ? "" : ", ") + n;
      throw UsageError("unknown family '" + spec.family + "' (known: " + known +
                       ")");
    }
    return true;
  }
  if (f == "--nodes") {
    spec.nodes = parse_int_as<NodeId>(f, w.value());
    if (spec.nodes < 2) throw UsageError("--nodes must be >= 2");
    return true;
  }
  if (f == "--seed") {
    spec.seed = parse_u64(f, w.value());
    return true;
  }
  if (f == "--graph") {
    spec.graph_file = w.value();
    return true;
  }
  return false;
}

void check_spec(const GraphSpec& spec) {
  if (spec.from_file() && !spec.family.empty()) {
    throw UsageError("--graph and --family are mutually exclusive");
  }
  if (!spec.from_file() && spec.family.empty()) {
    throw UsageError("need --family <name> or --graph <file>");
  }
}

namespace {

void print_map_edges(const TopologyMap& map, std::ostream& out) {
  out << "Recovered topology (node 0 is the root; nodes are named by their "
         "canonical path from the root):\n";
  for (const MapEdge& e : map.edges()) {
    out << "  n" << e.from << " --[out " << static_cast<int>(e.out_port)
        << " -> in " << static_cast<int>(e.in_port) << "]--> n" << e.to
        << "\n";
  }
}

}  // namespace

RunOptions parse_run_args(const std::vector<std::string>& args) {
  RunOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    if (parse_spec_flag(w, opt.spec)) continue;
    const std::string& f = w.flag();
    if (f == "--root") {
      opt.root = parse_int_as<NodeId>(f, w.value());
    } else if (f == "--threads") {
      opt.threads = parse_int_as<int>(f, w.value());
      if (opt.threads < 1) throw UsageError("--threads must be >= 1");
    } else if (f == "--max-ticks") {
      opt.max_ticks = parse_int_as<std::int64_t>(f, w.value());
    } else if (f == "--verify") {
      opt.verify = true;
    } else if (f == "--quiet") {
      opt.quiet = true;
    } else if (f == "--map-out") {
      opt.map_out = w.value();
    } else {
      throw UsageError("unknown flag '" + f + "' for 'run'");
    }
  }
  check_spec(opt.spec);
  return opt;
}

GenOptions parse_gen_args(const std::vector<std::string>& args) {
  GenOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    if (parse_spec_flag(w, opt.spec)) continue;
    const std::string& f = w.flag();
    if (f == "--out") {
      opt.out = w.value();
    } else if (f == "--dot") {
      opt.dot = true;
    } else if (f == "--permute") {
      opt.permute = true;
      opt.permute_seed = parse_u64(f, w.value());
    } else {
      throw UsageError("unknown flag '" + f + "' for 'gen'");
    }
  }
  if (opt.spec.from_file()) {
    throw UsageError("'gen' generates a family; --graph makes no sense here");
  }
  check_spec(opt.spec);
  return opt;
}

VerifyOptions parse_verify_args(const std::vector<std::string>& args) {
  VerifyOptions opt;
  FlagWalker w(args);
  while (w.next()) {
    const std::string& f = w.flag();
    if (f == "--graph") {
      opt.graph_file = w.value();
    } else if (f == "--map") {
      opt.map_file = w.value();
    } else if (f == "--root") {
      opt.root = parse_int_as<NodeId>(f, w.value());
    } else {
      throw UsageError("unknown flag '" + f + "' for 'verify'");
    }
  }
  if (opt.graph_file.empty() || opt.map_file.empty()) {
    throw UsageError("'verify' needs --graph <file> and --map <file>");
  }
  return opt;
}

PortGraph load_or_make_graph(const GraphSpec& spec, std::string* label) {
  if (spec.from_file()) {
    PortGraph g = with_input(spec.graph_file,
                             [](std::istream& is) { return read_graph(is); });
    g.validate();
    if (label) *label = spec.graph_file;
    return g;
  }
  FamilyInstance fi = make_family(spec.family, spec.nodes, spec.seed);
  if (label) *label = fi.label;
  return std::move(fi.graph);
}

int run_command(const RunOptions& opt, std::ostream& out, std::ostream& err) {
  std::string label;
  const PortGraph g = load_or_make_graph(opt.spec, &label);
  if (opt.root >= g.num_nodes()) {
    err << "error: --root " << opt.root << " out of range (network has "
        << g.num_nodes() << " nodes)\n";
    return 2;
  }

  out << "Network '" << label << "': " << g.num_nodes() << " processors, "
      << g.num_wires() << " wires, delta=" << static_cast<int>(g.delta())
      << ", root=" << opt.root << "\n";

  GtdOptions gopt;
  gopt.num_threads = opt.threads;
  gopt.max_ticks = opt.max_ticks;
  const GtdResult result = run_gtd(g, opt.root, gopt);
  if (result.status != RunStatus::kTerminated) {
    err << "error: protocol did not terminate within the tick budget ("
        << result.stats.ticks << " ticks elapsed)\n";
    return 1;
  }

  out << "Protocol terminated after " << result.stats.ticks
      << " ticks, " << result.stats.messages << " characters transmitted\n";
  out << result.map.summary() << "\n";
  if (!opt.quiet) print_map_edges(result.map, out);

  if (!opt.map_out.empty()) {
    with_output(opt.map_out, out,
                [&](std::ostream& os) { write_map(os, result.map); });
    if (opt.map_out != "-") out << "Map written to " << opt.map_out << "\n";
  }

  if (opt.verify) {
    const VerifyResult v = verify_map(g, opt.root, result.map);
    out << "Verification: " << (v.ok ? "EXACT MATCH" : v.detail) << "\n";
    if (!v.ok) return 1;
    if (!result.end_state_clean) {
      err << "error: end state not clean (Lemma 4.2 violated)\n";
      return 1;
    }
  }
  return 0;
}

int gen_command(const GenOptions& opt, std::ostream& out, std::ostream& err) {
  std::string label;
  PortGraph g = load_or_make_graph(opt.spec, &label);
  if (opt.permute) {
    // Relabel every node except the root: swapping whichever node drew
    // label 0 back to 0 keeps the instance rooted at 0, so the permuted
    // graph is a drop-in rooted-isomorphic twin of the original.
    std::vector<NodeId> mapping(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) mapping[v] = v;
    Rng rng(opt.permute_seed);
    rng.shuffle(mapping);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (mapping[v] == 0) {
        std::swap(mapping[v], mapping[0]);
        break;
      }
    }
    g = permute_nodes(g, mapping);
    label += "-permuted";
  }
  with_output(opt.out, out, [&](std::ostream& os) {
    if (opt.dot) {
      write_dot(os, g);
    } else {
      write_graph(os, g);
    }
  });
  if (!opt.out.empty() && opt.out != "-") {
    out << "Wrote '" << label << "' (" << g.num_nodes() << " nodes, "
        << g.num_wires() << " wires) to " << opt.out << "\n";
  }
  (void)err;
  return 0;
}

int verify_command(const VerifyOptions& opt, std::ostream& out,
                   std::ostream& err) {
  PortGraph truth = with_input(
      opt.graph_file, [](std::istream& is) { return read_graph(is); });
  truth.validate();
  if (opt.root >= truth.num_nodes()) {
    err << "error: --root " << opt.root << " out of range\n";
    return 2;
  }
  const TopologyMap map =
      with_input(opt.map_file, [](std::istream& is) { return read_map(is); });
  const VerifyResult v = verify_map(truth, opt.root, map);
  if (v.ok) {
    out << "OK: map matches the network (" << map.node_count() << " nodes, "
        << map.edge_count() << " edges)\n";
    return 0;
  }
  out << "MISMATCH: " << v.detail << "\n";
  return 1;
}

std::string usage_text() {
  std::string families;
  for (const std::string& n : family_names()) {
    families += (families.empty() ? "" : " ") + n;
  }
  return
      "dtopctl — drive the Global Topology Determination protocol\n"
      "\n"
      "Usage:\n"
      "  dtopctl run    (--family NAME --nodes N | --graph FILE) [--seed S]\n"
      "                 [--root R] [--threads T] [--max-ticks T]\n"
      "                 [--verify] [--map-out FILE] [--quiet]\n"
      "  dtopctl gen    --family NAME --nodes N [--seed S] [--out FILE] [--dot]\n"
      "                 [--permute SEED]\n"
      "  dtopctl verify --graph FILE --map FILE [--root R]\n"
      "  dtopctl sweep  [--spec FILE] [--families a,b,...] [--sizes LIST]\n"
      "                 [--seeds LIST] [--configs ratio1..ratio4]\n"
      "                 [--scenarios none,budget@T,kill@T,unmark@T,dfs@T]\n"
      "                 [--root R] [--max-ticks T] [--threads T]\n"
      "                 [--format table|json|csv] [--out FILE] [--timing]\n"
      "                 [--quiet] [--trace-dir DIR]\n"
      "  dtopctl trace  record  (--family NAME --nodes N | --graph FILE)\n"
      "                 --out FILE [--seed S] [--root R] [--threads T]\n"
      "                 [--max-ticks T] [--config ratioK] [--scenario S]...\n"
      "                 [--spans] [--codec raw|dlz|zstd]\n"
      "  dtopctl trace  inspect --trace FILE [--start I] [--max N] [--summary]\n"
      "  dtopctl trace  diff    --a FILE --b FILE\n"
      "  dtopctl trace  replay  --trace FILE [--threads T]\n"
      "  dtopctl trace  extract --trace FILE --out FILE [--from-tick T]\n"
      "                 [--to-tick T] [--from-event I] [--to-event I]\n"
      "                 [--codec C]\n"
      "  dtopctl trace  splice  --trace BASE --donor FILE --out FILE\n"
      "                 [range flags as extract] [--codec C]\n"
      "  dtopctl trace  overwrite --trace FILE --out FILE --scenario S...\n"
      "                 [--seed S] [range flags] [--codec C]\n"
      "  dtopctl trace  corpus  --dir DIR\n"
      "  dtopctl serve  (--socket PATH | --listen HOST:PORT) [--workers N]\n"
      "                 [--cache N] [--cache-store FILE] [--trace-dir DIR]\n"
      "                 [--quiet]\n"
      "  dtopctl client --socket EP [--request JSON]... [--in FILE]\n"
      "                 [--shutdown]\n"
      "  dtopctl loadgen --endpoint EP [--concurrency C]\n"
      "                 [--rate R] [--requests N] [--duration S] [--zipf S]\n"
      "                 [--instances K] [--mix determine=8,verify=1,sweep=1]\n"
      "                 [--seed S] [--out FILE] [--bench-json DIR]\n"
      "                 [--quiet]\n"
      "  dtopctl metrics --endpoint EP [--format table|json|prom] [--delta]\n"
      "                 [--out FILE]\n"
      "  dtopctl top    --endpoint EP [--interval S] [--iterations N]\n"
      "                 [--no-clear]\n"
      "  dtopctl help\n"
      "\n"
      "Endpoints (EP): a Unix socket path, or HOST:PORT for TCP.\n"
      "Families: " + families + "\n"
      "Integer LISTs accept commas and ranges: 8,16 or 8..64:8.\n"
      "File arguments accept '-' for stdin/stdout.\n"
      "Exit codes: 0 success, 1 runtime/verify failure, 2 usage error;\n"
      "interrupted sweep/serve drain and exit 128+signal (130/143).\n"
      "Full reference: docs/dtopctl.md\n";
}

int cli_main(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  try {
    if (args.empty()) {
      err << usage_text();
      return 2;
    }
    if (args[0] == "help" || args[0] == "--help" || args[0] == "-h") {
      out << usage_text();
      return 0;
    }
    const std::string& cmd = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (cmd == "run") return run_command(parse_run_args(rest), out, err);
    if (cmd == "gen") return gen_command(parse_gen_args(rest), out, err);
    if (cmd == "verify")
      return verify_command(parse_verify_args(rest), out, err);
    if (cmd == "sweep") return sweep_command(parse_sweep_args(rest), out, err);
    if (cmd == "trace") return trace_command(parse_trace_args(rest), out, err);
    if (cmd == "serve") return serve_command(parse_serve_args(rest), out, err);
    if (cmd == "client")
      return client_command(parse_client_args(rest), out, err);
    if (cmd == "loadgen")
      return loadgen_command(parse_loadgen_args(rest), out, err);
    if (cmd == "metrics")
      return metrics_command(parse_metrics_args(rest), out, err);
    if (cmd == "top") return top_command(parse_top_args(rest), out, err);
    throw UsageError("unknown subcommand '" + cmd + "'");
  } catch (const UsageError& e) {
    err << "usage error: " << e.what() << "\n\n" << usage_text();
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

int cli_main(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return cli_main(args, out, err);
}

}  // namespace dtop::cli
