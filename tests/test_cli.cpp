// Tests for the dtopctl CLI: argument parsing, each subcommand, and an
// end-to-end run+verify round trip driven through cli_main() in-process.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/graph_io.hpp"
#include "trace/codec.hpp"
#include "trace/container.hpp"
#include "trace/trace_io.hpp"

namespace dtop::cli {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dtop_cli_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------- parsing ---------------------------------

TEST(CliParse, RunFullFlagSet) {
  const RunOptions opt = parse_run_args(
      {"--family", "torus", "--nodes", "9", "--seed", "7", "--root", "3",
       "--threads", "2", "--max-ticks", "5000", "--verify", "--quiet",
       "--map-out", "map.txt"});
  EXPECT_EQ(opt.spec.family, "torus");
  EXPECT_EQ(opt.spec.nodes, 9u);
  EXPECT_EQ(opt.spec.seed, 7u);
  EXPECT_EQ(opt.root, 3u);
  EXPECT_EQ(opt.threads, 2);
  EXPECT_EQ(opt.max_ticks, 5000);
  EXPECT_TRUE(opt.verify);
  EXPECT_TRUE(opt.quiet);
  EXPECT_EQ(opt.map_out, "map.txt");
}

TEST(CliParse, RunDefaults) {
  const RunOptions opt = parse_run_args({"--family", "debruijn"});
  EXPECT_EQ(opt.root, 0u);
  EXPECT_EQ(opt.threads, 1);
  EXPECT_EQ(opt.max_ticks, 0);
  EXPECT_FALSE(opt.verify);
  EXPECT_FALSE(opt.quiet);
}

TEST(CliParse, RejectsUnknownFlag) {
  EXPECT_THROW(parse_run_args({"--family", "torus", "--bogus"}), UsageError);
}

TEST(CliParse, RejectsMissingValue) {
  EXPECT_THROW(parse_run_args({"--family"}), UsageError);
}

TEST(CliParse, RejectsUnknownFamily) {
  EXPECT_THROW(parse_run_args({"--family", "hypercube"}), UsageError);
}

TEST(CliParse, RejectsNonNumericNodes) {
  EXPECT_THROW(parse_run_args({"--family", "torus", "--nodes", "many"}),
               UsageError);
}

TEST(CliParse, RejectsOutOfRangeValues) {
  // 2^32 would silently truncate to 0 without the range check.
  EXPECT_THROW(parse_run_args({"--family", "torus", "--root", "4294967296"}),
               UsageError);
  EXPECT_THROW(parse_run_args({"--family", "torus", "--nodes", "4294967298"}),
               UsageError);
  EXPECT_THROW(parse_run_args({"--family", "torus", "--threads", "4294967297"}),
               UsageError);
}

TEST(CliParse, RejectsFamilyAndGraphTogether) {
  EXPECT_THROW(
      parse_run_args({"--family", "torus", "--graph", "g.txt"}), UsageError);
}

TEST(CliParse, RequiresFamilyOrGraph) {
  EXPECT_THROW(parse_run_args({"--nodes", "9"}), UsageError);
}

TEST(CliParse, GenRejectsGraphInput) {
  EXPECT_THROW(parse_gen_args({"--graph", "g.txt"}), UsageError);
}

TEST(CliParse, VerifyRequiresBothFiles) {
  EXPECT_THROW(parse_verify_args({"--graph", "g.txt"}), UsageError);
  EXPECT_THROW(parse_verify_args({"--map", "m.txt"}), UsageError);
  const VerifyOptions opt =
      parse_verify_args({"--graph", "g.txt", "--map", "m.txt", "--root", "1"});
  EXPECT_EQ(opt.graph_file, "g.txt");
  EXPECT_EQ(opt.map_file, "m.txt");
  EXPECT_EQ(opt.root, 1u);
}

TEST(CliParse, ListGrammarIsUniformAcrossSubcommands) {
  // List flags accept commas and/or whitespace.
  const SweepOptions sweep =
      parse_sweep_args({"--families", "torus debruijn"});
  EXPECT_EQ(sweep.spec.families,
            (std::vector<std::string>{"torus", "debruijn"}));
}

TEST(CliParse, SweepRejectsUnknownFamilyInList) {
  EXPECT_THROW(parse_sweep_args({"--families", "torus,nope"}), UsageError);
}

TEST(CliParse, SweepFullFlagSet) {
  const SweepOptions opt = parse_sweep_args(
      {"--families", "torus,dering", "--sizes", "4,8..16:4", "--seeds",
       "1..3", "--configs", "ratio3,ratio4", "--scenarios", "none,budget@9",
       "--root", "1", "--max-ticks", "90000", "--threads", "4", "--format",
       "json", "--out", "res.json", "--timing", "--quiet"});
  EXPECT_EQ(opt.spec.families, (std::vector<std::string>{"torus", "dering"}));
  EXPECT_EQ(opt.spec.sizes, (std::vector<NodeId>{4, 8, 12, 16}));
  EXPECT_EQ(opt.spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  ASSERT_EQ(opt.spec.configs.size(), 2u);
  EXPECT_EQ(opt.spec.configs[1].label, "ratio4");
  ASSERT_EQ(opt.spec.scenarios.size(), 2u);
  EXPECT_EQ(opt.spec.scenarios[1].label, "budget@9");
  EXPECT_EQ(opt.spec.root, 1u);
  EXPECT_EQ(opt.spec.max_ticks, 90000);
  EXPECT_EQ(opt.threads, 4);
  EXPECT_EQ(opt.format, "json");
  EXPECT_EQ(opt.out, "res.json");
  EXPECT_TRUE(opt.timing);
  EXPECT_TRUE(opt.quiet);
}

TEST(CliParse, SweepDefaults) {
  const SweepOptions opt = parse_sweep_args({});
  EXPECT_EQ(opt.threads, 1);
  EXPECT_EQ(opt.format, "table");
  EXPECT_FALSE(opt.timing);
  ASSERT_EQ(opt.spec.configs.size(), 1u);
  EXPECT_EQ(opt.spec.scenarios[0].label, "none");
}

TEST(CliParse, SweepRejectsBadValuesAsUsageErrors) {
  EXPECT_THROW(parse_sweep_args({"--families", "klein_bottle"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--sizes", "many"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--sizes", "1"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--seeds", "9..1"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--configs", "warp9"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--scenarios", "meteor@4"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--format", "xml"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--threads", "0"}), UsageError);
  EXPECT_THROW(parse_sweep_args({"--bogus"}), UsageError);
}

TEST(CliParse, SweepMalformedSpecFileIsAUsageError) {
  // The exit-code contract: a malformed value is operator error (exit 2)
  // whether it arrives via a flag or inside a --spec file.
  const std::string path = temp_path("sweep_bad_spec.txt");
  {
    std::ofstream out(path);
    out << "sizes = many\n";
  }
  EXPECT_THROW(parse_sweep_args({"--spec", path}), UsageError);
}

TEST(CliParse, SweepSpecFileWithFlagOverrides) {
  const std::string path = temp_path("sweep_spec.txt");
  {
    std::ofstream out(path);
    out << "families = torus, dering\n"
           "sizes = 9\n"
           "seeds = 1..4\n";
  }
  // Flags win over the file regardless of argument order.
  const SweepOptions opt =
      parse_sweep_args({"--seeds", "7", "--spec", path});
  EXPECT_EQ(opt.spec.families, (std::vector<std::string>{"torus", "dering"}));
  EXPECT_EQ(opt.spec.sizes, (std::vector<NodeId>{9}));
  EXPECT_EQ(opt.spec.seeds, (std::vector<std::uint64_t>{7}));
}

// ----------------------------- subcommands -------------------------------

TEST(CliMain, HelpPrintsUsage) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"help"}, out, err), 0);
  EXPECT_NE(out.str().find("dtopctl run"), std::string::npos);
}

TEST(CliMain, NoArgsIsUsageErrorOnStderr) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({}, out, err), 2);
  EXPECT_TRUE(out.str().empty());
  EXPECT_NE(err.str().find("Usage:"), std::string::npos);
}

TEST(CliMain, UnknownSubcommandExitsTwo) {
  // The exit-code contract (docs/dtopctl.md): unknown subcommand => usage
  // on stderr, nothing on stdout, exit 2.
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"frobnicate"}, out, err), 2);
  EXPECT_TRUE(out.str().empty());
  EXPECT_NE(err.str().find("unknown subcommand"), std::string::npos);
  EXPECT_NE(err.str().find("Usage:"), std::string::npos);
  std::ostringstream bout, berr;
  EXPECT_EQ(cli_main({"bench", "--families", "torus"}, bout, berr), 2);
  EXPECT_NE(berr.str().find("unknown subcommand 'bench'"), std::string::npos);
}

TEST(CliMain, RunVerifyTorusEndToEnd) {
  // The ISSUE acceptance line: run a 9-node torus and verify the map.
  std::ostringstream out, err;
  const int rc = cli_main(
      {"run", "--family", "torus", "--nodes", "9", "--verify"}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("EXACT MATCH"), std::string::npos) << out.str();
  // The recovered map listing is printed (9 nodes -> 18 port-labelled edges).
  EXPECT_NE(out.str().find("--[out "), std::string::npos);
}

TEST(CliMain, GenWritesRoundTrippableGraph) {
  const std::string path = temp_path("gen_graph.txt");
  std::ostringstream out, err;
  const int rc = cli_main(
      {"gen", "--family", "debruijn", "--nodes", "8", "--out", path}, out,
      err);
  EXPECT_EQ(rc, 0) << err.str();
  const PortGraph g = graph_from_string(read_file(path));
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_wires(), 16u);
  EXPECT_EQ(graph_to_string(g), graph_to_string(de_bruijn(3)));
}

TEST(CliMain, GenDotOutput) {
  std::ostringstream out, err;
  const int rc = cli_main(
      {"gen", "--family", "dering", "--nodes", "4", "--dot"}, out, err);
  EXPECT_EQ(rc, 0) << err.str();
  EXPECT_NE(out.str().find("digraph"), std::string::npos);
}

TEST(CliMain, VerifySubcommandRoundTrip) {
  const std::string graph_path = temp_path("verify_graph.txt");
  const std::string map_path = temp_path("verify_map.txt");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"gen", "--family", "torus", "--nodes", "9", "--out",
                      graph_path},
                     out, err),
            0)
      << err.str();
  ASSERT_EQ(cli_main({"run", "--graph", graph_path, "--quiet", "--map-out",
                      map_path},
                     out, err),
            0)
      << err.str();

  std::ostringstream vout, verr;
  EXPECT_EQ(cli_main({"verify", "--graph", graph_path, "--map", map_path},
                     vout, verr),
            0)
      << verr.str();
  EXPECT_NE(vout.str().find("OK"), std::string::npos);
}

TEST(CliMain, VerifyDetectsMismatch) {
  // Map recovered from a de Bruijn graph must not verify against a ring.
  const std::string graph_path = temp_path("mismatch_graph.txt");
  const std::string wrong_path = temp_path("mismatch_wrong.txt");
  const std::string map_path = temp_path("mismatch_map.txt");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"gen", "--family", "debruijn", "--nodes", "8", "--out",
                      graph_path},
                     out, err),
            0);
  ASSERT_EQ(cli_main({"gen", "--family", "biring", "--nodes", "8", "--out",
                      wrong_path},
                     out, err),
            0);
  ASSERT_EQ(cli_main({"run", "--graph", graph_path, "--quiet", "--map-out",
                      map_path},
                     out, err),
            0);

  std::ostringstream vout, verr;
  EXPECT_EQ(cli_main({"verify", "--graph", wrong_path, "--map", map_path},
                     vout, verr),
            1);
  EXPECT_NE(vout.str().find("MISMATCH"), std::string::npos);
}

TEST(CliMain, SweepJsonRoundTripIdenticalAcrossThreadCounts) {
  // The ISSUE acceptance line: a 2-families x 3-sizes x 4-seeds campaign
  // (24 jobs) run concurrently, with byte-identical JSON at 1 and 8 threads.
  const std::vector<std::string> base = {
      "sweep",   "--families", "torus,dering", "--sizes", "4,6,9",
      "--seeds", "1,2,3,4",    "--format",     "json",    "--quiet"};
  auto with_threads = [&](const std::string& n) {
    std::vector<std::string> args = base;
    args.push_back("--threads");
    args.push_back(n);
    return args;
  };
  std::ostringstream out1, err1, out8, err8;
  EXPECT_EQ(cli_main(with_threads("1"), out1, err1), 0) << err1.str();
  EXPECT_EQ(cli_main(with_threads("8"), out8, err8), 0) << err8.str();
  EXPECT_EQ(out1.str(), out8.str());

  const std::string& json = out1.str();
  EXPECT_NE(json.find("\"jobs\": 24"), std::string::npos) << json;
  EXPECT_NE(json.find("\"exact\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"ticks\""), std::string::npos);
  EXPECT_NE(json.find("\"messages\""), std::string::npos);
  EXPECT_NE(json.find("\"verify\": true"), std::string::npos);
}

TEST(CliMain, SweepStreamsProgressToStderr) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"sweep", "--families", "torus", "--sizes", "4",
                      "--seeds", "1,2"},
                     out, err),
            0);
  EXPECT_NE(err.str().find("[1/2]"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("[2/2]"), std::string::npos);
  EXPECT_NE(out.str().find("2 jobs, 2 exact, 0 failed"), std::string::npos);
}

TEST(CliMain, SweepCollectsPerJobFailuresAndExitsOne) {
  // A tick-budget fault must mark its own job failed without aborting the
  // campaign; the healthy job still verifies.
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"sweep", "--families", "torus", "--sizes", "9",
                      "--seeds", "1", "--scenarios", "none,budget@4",
                      "--quiet"},
                     out, err),
            1);
  EXPECT_NE(out.str().find("exact"), std::string::npos) << out.str();
  EXPECT_NE(out.str().find("budget"), std::string::npos);
  EXPECT_NE(out.str().find("1 failed"), std::string::npos);
}

TEST(CliMain, SweepSpecFileEndToEnd) {
  const std::string spec_path = temp_path("sweep_e2e_spec.txt");
  const std::string out_path = temp_path("sweep_e2e.csv");
  {
    std::ofstream spec(spec_path);
    spec << "# tiny campaign\nfamilies = torus\nsizes = 4\nseeds = 1, 2\n";
  }
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"sweep", "--spec", spec_path, "--format", "csv",
                      "--out", out_path, "--quiet"},
                     out, err),
            0)
      << err.str();
  const std::string csv = read_file(out_path);
  EXPECT_EQ(csv.rfind("index,family,label", 0), 0u) << csv;
  EXPECT_NE(csv.find("exact"), std::string::npos);
  EXPECT_NE(out.str().find("written to"), std::string::npos);
}

TEST(CliMain, RunRootOutOfRangeFails) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"run", "--family", "torus", "--nodes", "9", "--root",
                      "99"},
                     out, err),
            2);
  EXPECT_NE(err.str().find("out of range"), std::string::npos);
}

TEST(CliMain, RunMissingGraphFileFailsCleanly) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"run", "--graph", temp_path("does_not_exist.txt")},
                     out, err),
            1);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

// ------------------------------- trace -----------------------------------

TEST(CliParse, TraceRecordFullFlagSet) {
  const TraceOptions opt = parse_trace_args(
      {"record", "--family", "torus", "--nodes", "9", "--seed", "3", "--root",
       "1", "--threads", "4", "--max-ticks", "9000", "--config", "ratio2",
       "--scenario", "kill@40", "--scenario", "dfs@10", "--out", "t.dtrace"});
  EXPECT_EQ(opt.action, "record");
  EXPECT_EQ(opt.spec.family, "torus");
  EXPECT_EQ(opt.spec.seed, 3u);
  EXPECT_EQ(opt.root, 1u);
  EXPECT_EQ(opt.threads, 4);
  EXPECT_EQ(opt.max_ticks, 9000);
  EXPECT_EQ(opt.config, "ratio2");
  ASSERT_EQ(opt.scenarios.size(), 2u);
  EXPECT_EQ(opt.scenarios[0].label, "kill@40");
  EXPECT_EQ(opt.out, "t.dtrace");
}

TEST(CliParse, TraceRejectsBadInvocations) {
  EXPECT_THROW(parse_trace_args({}), UsageError);
  EXPECT_THROW(parse_trace_args({"--trace", "x"}), UsageError);
  EXPECT_THROW(parse_trace_args({"bogus"}), UsageError);
  // record needs a graph source and --out
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus"}), UsageError);
  EXPECT_THROW(parse_trace_args({"record", "--out", "t"}), UsageError);
  // bad scenario / config are usage errors, not runtime errors
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out", "t",
                                 "--scenario", "explode@5"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out", "t",
                                 "--config", "ratio9"}),
               UsageError);
  // --spans is single-threaded
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out", "t",
                                 "--spans", "--threads", "2"}),
               UsageError);
  // inspect/replay need --trace, diff needs --a and --b
  EXPECT_THROW(parse_trace_args({"inspect"}), UsageError);
  EXPECT_THROW(parse_trace_args({"replay"}), UsageError);
  EXPECT_THROW(parse_trace_args({"diff", "--a", "x"}), UsageError);
  // per-action flags do not leak across actions
  EXPECT_THROW(parse_trace_args({"inspect", "--trace", "x", "--out", "y"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"diff", "--a", "x", "--b", "y", "--trace",
                                 "z"}),
               UsageError);
}

TEST(CliMain, TraceRecordInspectReplayRoundTrip) {
  const std::string path = temp_path("roundtrip.dtrace");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "torus", "--nodes", "9",
                      "--out", path},
                     out, err),
            0)
      << err.str();
  EXPECT_NE(out.str().find("Recorded"), std::string::npos);

  std::ostringstream iout, ierr;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", path, "--max", "5"},
                     iout, ierr),
            0);
  EXPECT_NE(iout.str().find("9 processors"), std::string::npos);
  EXPECT_NE(iout.str().find("terminated"), std::string::npos);
  EXPECT_NE(iout.str().find("[0] t=0 schedule node=0"), std::string::npos);
  EXPECT_NE(iout.str().find("more events"), std::string::npos);

  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", path}, rout, rerr), 0)
      << rerr.str();
  EXPECT_NE(rout.str().find("Replay OK"), std::string::npos);
}

TEST(CliMain, TraceDiffPinpointsPerturbedTick) {
  const std::string a_path = temp_path("diff_a.dtrace");
  const std::string b_path = temp_path("diff_b.dtrace");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "debruijn", "--nodes",
                      "8", "--out", a_path},
                     out, err),
            0);

  // Perturb one mid-run wire send and write the result as B.
  trace::RecordedTrace t;
  {
    std::ifstream in(a_path, std::ios::binary);
    t = trace::read_trace(in);
  }
  std::size_t victim = 0;
  for (std::size_t i = t.events.size() / 2; i < t.events.size(); ++i) {
    if (t.events[i].kind == trace::TraceEventKind::kWireSend) {
      victim = i;
      break;
    }
  }
  ASSERT_GT(victim, 0u);
  t.events[victim].payload.set_kill(true);
  {
    std::ofstream os(b_path, std::ios::binary);
    trace::write_trace_dtr2(os, t);
  }

  // Identical traces diff clean (exit 0); the perturbed pair exits 1 and
  // names the divergent event and tick.
  std::ostringstream sout, serr;
  EXPECT_EQ(cli_main({"trace", "diff", "--a", a_path, "--b", a_path}, sout,
                     serr),
            0);
  EXPECT_NE(sout.str().find("identical"), std::string::npos);

  std::ostringstream dout, derr;
  EXPECT_EQ(cli_main({"trace", "diff", "--a", a_path, "--b", b_path}, dout,
                     derr),
            1);
  const std::string expected = "event " + std::to_string(victim) + " (tick " +
                               std::to_string(t.events[victim].tick) + ")";
  EXPECT_NE(dout.str().find(expected), std::string::npos) << dout.str();

  // The perturbed trace also fails replay, at the same tick.
  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", b_path}, rout, rerr), 1);
  EXPECT_NE(rerr.str().find("tick " +
                            std::to_string(t.events[victim].tick)),
            std::string::npos)
      << rerr.str();
}

TEST(CliMain, TraceRecordWithScenarioReplays) {
  const std::string path = temp_path("scenario.dtrace");
  std::ostringstream out, err;
  // kill@60 wrecks the RCA in flight: the run fails (exit 1) but the trace
  // is still written and must replay cleanly. (The tick matters: a rogue
  // KILL landing during the protocol's own killing phase — as kill@40 does
  // on this instance — is absorbed and the run survives.)
  const int rc = cli_main({"trace", "record", "--family", "debruijn",
                           "--nodes", "8", "--max-ticks", "4000",
                           "--scenario", "kill@60", "--out", path},
                          out, err);
  EXPECT_EQ(rc, 1);
  std::ostringstream iout, ierr;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", path, "--summary"},
                     iout, ierr),
            0);
  EXPECT_NE(iout.str().find("inject=1"), std::string::npos) << iout.str();
  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", path}, rout, rerr), 0)
      << rerr.str();
}

TEST(CliMain, TraceInspectSurvivesInconsistentSpanStreams) {
  // A faulted --spans recording can contain overlapping spans; inspect must
  // note the inconsistency, not die in the serialization audit.
  trace::RecordedTrace t;
  t.header.graph = directed_ring(4);
  trace::TraceEvent ev;
  ev.kind = trace::TraceEventKind::kRcaStart;
  ev.tick = 1;
  ev.a = 1;
  t.events.push_back(ev);
  ev.tick = 2;
  ev.a = 2;
  t.events.push_back(ev);  // second RCA start with the first still open

  const std::string path = temp_path("bad_spans.dtrace");
  {
    std::ofstream os(path, std::ios::binary);
    trace::write_trace_dtr2(os, t);
  }
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", path}, out, err), 0);
  EXPECT_NE(out.str().find("Span stream inconsistent"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find("[1]"), std::string::npos);  // listing still runs
}

TEST(CliMain, TraceMissingFileFailsCleanly) {
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace",
                      temp_path("missing.dtrace")},
                     out, err),
            1);
  EXPECT_NE(err.str().find("cannot open"), std::string::npos);
}

TEST(CliMain, SweepTraceDirCapturesFailedJobs) {
  const std::string dir = ::testing::TempDir();
  std::ostringstream out, err;
  const int rc = cli_main({"sweep", "--families", "torus", "--sizes", "9",
                           "--scenarios", "none,budget@50", "--format",
                           "json", "--trace-dir", dir},
                          out, err);
  EXPECT_EQ(rc, 1);  // the budget job fails by design
  EXPECT_NE(out.str().find("\"trace\": "), std::string::npos) << out.str();
  EXPECT_NE(err.str().find("[trace: "), std::string::npos) << err.str();

  // The capture replays.
  const std::string json = out.str();
  const std::size_t tag = json.find("\"trace\": \"");
  ASSERT_NE(tag, std::string::npos);
  const std::size_t begin = tag + 10;
  const std::size_t end = json.find('"', begin);
  const std::string trace_path = json.substr(begin, end - begin);
  // Named by the runner's contract: <trace_dir>/job-<index>.dtrace.
  EXPECT_EQ(std::filesystem::path(trace_path).filename(), "job-1.dtrace");
  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", trace_path}, rout, rerr),
            0)
      << rerr.str();

  // Jobs are pure functions of their spec: a second sweep re-captures the
  // same path with the same bytes and emits the same JSON.
  const auto read_bytes = [&] {
    std::ifstream in(trace_path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string first = read_bytes();
  ASSERT_FALSE(first.empty());
  std::ostringstream out2, err2;
  EXPECT_EQ(cli_main({"sweep", "--families", "torus", "--sizes", "9",
                      "--scenarios", "none,budget@50", "--format", "json",
                      "--trace-dir", dir},
                     out2, err2),
            1);
  EXPECT_EQ(out2.str(), json);
  EXPECT_EQ(read_bytes(), first);
}

TEST(CliParse, TraceWarehouseFlagSets) {
  const TraceOptions rec = parse_trace_args(
      {"record", "--family", "torus", "--nodes", "9", "--out", "t.dtrace",
       "--codec", "raw"});
  EXPECT_EQ(rec.codec, "raw");

  const TraceOptions ex = parse_trace_args(
      {"extract", "--trace", "a", "--out", "b", "--from-tick", "10",
       "--to-tick", "20"});
  EXPECT_EQ(ex.action, "extract");
  EXPECT_EQ(ex.from_tick, 10);
  EXPECT_EQ(ex.to_tick, 20);
  EXPECT_EQ(ex.codec, "");  // the build's default codec

  const TraceOptions sp = parse_trace_args(
      {"splice", "--trace", "a", "--donor", "d", "--out", "b", "--from-event",
       "5", "--to-event", "9"});
  EXPECT_EQ(sp.donor, "d");
  EXPECT_EQ(sp.from_event, 5);
  EXPECT_EQ(sp.to_event, 9);

  const TraceOptions ow = parse_trace_args(
      {"overwrite", "--trace", "a", "--out", "b", "--scenario", "dfs@10",
       "--seed", "7"});
  EXPECT_EQ(ow.seed, 7u);
  ASSERT_EQ(ow.scenarios.size(), 1u);

  const TraceOptions co = parse_trace_args({"corpus", "--dir", "runs"});
  EXPECT_EQ(co.corpus_dir, "runs");
}

TEST(CliParse, TraceWarehouseRejections) {
  // surgery needs --trace and --out
  EXPECT_THROW(parse_trace_args({"extract", "--trace", "a"}), UsageError);
  EXPECT_THROW(parse_trace_args({"extract", "--out", "b"}), UsageError);
  // one range vocabulary at a time, and ranges must be ordered
  EXPECT_THROW(parse_trace_args({"extract", "--trace", "a", "--out", "b",
                                 "--from-tick", "1", "--to-event", "5"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"extract", "--trace", "a", "--out", "b",
                                 "--from-tick", "9", "--to-tick", "1"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"extract", "--trace", "a", "--out", "b",
                                 "--from-event", "9", "--to-event", "1"}),
               UsageError);
  // splice needs a donor; overwrite needs an injection scenario
  EXPECT_THROW(parse_trace_args({"splice", "--trace", "a", "--out", "b"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"overwrite", "--trace", "a", "--out", "b"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"overwrite", "--trace", "a", "--out", "b",
                                 "--scenario", "budget@50"}),
               UsageError);
  // corpus needs --dir; its flags do not leak elsewhere
  EXPECT_THROW(parse_trace_args({"corpus"}), UsageError);
  EXPECT_THROW(parse_trace_args({"corpus", "--dir", "x", "--out", "y"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"inspect", "--trace", "x", "--dir", "y"}),
               UsageError);
  // --format is gone (DTR2 is the only container); --codec is validated at
  // parse time
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out", "t",
                                 "--format", "dtr3"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out", "t",
                                 "--codec", "lzma"}),
               UsageError);
  if (!trace::codec_available(trace::TraceCodec::kZstd)) {
    EXPECT_THROW(parse_trace_args({"record", "--family", "torus", "--out",
                                   "t", "--codec", "zstd"}),
                 UsageError);
  }
  // --codec is a writer flag; inspect has no use for it
  EXPECT_THROW(parse_trace_args({"inspect", "--trace", "x", "--format",
                                 "dtr1"}),
               UsageError);
  EXPECT_THROW(parse_trace_args({"inspect", "--trace", "x", "--codec",
                                 "raw"}),
               UsageError);
}

// DTR2 is the only container, so the old --format switch is gone from every
// trace-writing action: even its former default is an unknown flag.
TEST(CliParse, TraceFormatFlagIsAUsageError) {
  const std::vector<std::vector<std::string>> writers = {
      {"record", "--family", "torus", "--nodes", "9", "--out", "t"},
      {"extract", "--trace", "a", "--out", "b"},
      {"splice", "--trace", "a", "--donor", "d", "--out", "b"},
      {"overwrite", "--trace", "a", "--out", "b", "--scenario", "dfs@10"},
  };
  for (std::vector<std::string> args : writers) {
    (void)parse_trace_args(args);  // valid without the flag
    args.push_back("--format");
    args.push_back("dtr2");
    try {
      (void)parse_trace_args(args);
      FAIL() << "expected UsageError for 'trace " << args[0] << " --format'";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown flag '--format'"),
                std::string::npos)
          << e.what();
    }
  }
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"trace", "record", "--family", "torus", "--nodes", "9",
                      "--out", temp_path("fmt.dtrace"), "--format", "dtr2"},
                     out, err),
            2);
}

TEST(CliMain, TraceRecordWritesBothCodecs) {
  const std::string p2 = temp_path("fmt2.dtrace");
  const std::string p1 = temp_path("fmt1.dtrace");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "debruijn", "--nodes",
                      "8", "--out", p2},
                     out, err),
            0)
      << err.str();
  ASSERT_EQ(cli_main({"trace", "record", "--family", "debruijn", "--nodes",
                      "8", "--codec", "raw", "--out", p1},
                     out, err),
            0)
      << err.str();

  std::ostringstream i2, i1, e;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", p2, "--summary"}, i2, e),
            0);
  EXPECT_NE(i2.str().find("DTR2/"), std::string::npos) << i2.str();
  EXPECT_NE(i2.str().find("indexed"), std::string::npos);
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", p1, "--summary"}, i1, e),
            0);
  EXPECT_NE(i1.str().find("DTR2/raw"), std::string::npos) << i1.str();
  EXPECT_LT(std::filesystem::file_size(p2), std::filesystem::file_size(p1));

  // Same run, both codecs: the payload decodes identically.
  std::ostringstream dout, derr;
  EXPECT_EQ(cli_main({"trace", "diff", "--a", p1, "--b", p2}, dout, derr), 0)
      << dout.str();

  // A huge --max must saturate, not wrap into an empty window.
  std::ostringstream wout, werr;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", p2, "--start", "1",
                      "--max", "18446744073709551615"},
                     wout, werr),
            0);
  EXPECT_EQ(wout.str().find("more events"), std::string::npos) << "window "
      "was clamped to empty";
  EXPECT_NE(wout.str().find("[1]"), std::string::npos);
}

TEST(CliMain, TraceExtractCutsTheRequestedWindow) {
  const std::string base = temp_path("exbase.dtrace");
  const std::string cut = temp_path("excut.dtrace");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "torus", "--nodes", "9",
                      "--out", base},
                     out, err),
            0);
  std::ostringstream xout, xerr;
  ASSERT_EQ(cli_main({"trace", "extract", "--trace", base, "--out", cut,
                      "--from-event", "2", "--to-event", "7"},
                     xout, xerr),
            0)
      << xerr.str();
  EXPECT_NE(xout.str().find("Extracted 5 of "), std::string::npos)
      << xout.str();
  std::ostringstream iout, ierr;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", cut}, iout, ierr), 0);
  EXPECT_NE(iout.str().find("5 events"), std::string::npos) << iout.str();
}

TEST(CliMain, TraceSpliceReproducesTheDonorRun) {
  // Base: a clean run. Donor: the same instance with a fault injected.
  // Grafting the donor's injections onto the base and re-recording must
  // reproduce the donor's trace exactly — the whole point of splice output
  // being a genuine re-recording.
  const std::string base = temp_path("spbase.dtrace");
  const std::string donor = temp_path("spdonor.dtrace");
  const std::string spliced = temp_path("spliced.dtrace");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "debruijn", "--nodes",
                      "8", "--out", base},
                     out, err),
            0);
  (void)cli_main({"trace", "record", "--family", "debruijn", "--nodes", "8",
                  "--scenario", "kill@40", "--out", donor},
                 out, err);

  std::ostringstream sout, serr;
  (void)cli_main({"trace", "splice", "--trace", base, "--donor", donor,
                  "--out", spliced},
                 sout, serr);
  EXPECT_NE(sout.str().find("Re-recorded"), std::string::npos) << serr.str();

  std::ostringstream dout, derr;
  EXPECT_EQ(cli_main({"trace", "diff", "--a", donor, "--b", spliced}, dout,
                     derr),
            0)
      << dout.str();
  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", spliced}, rout, rerr), 0)
      << rerr.str();
}

TEST(CliMain, TraceOverwriteSwapsTheInjections) {
  const std::string donor = temp_path("owdonor.dtrace");
  const std::string rewritten = temp_path("owout.dtrace");
  std::ostringstream out, err;
  (void)cli_main({"trace", "record", "--family", "debruijn", "--nodes", "8",
                  "--scenario", "kill@40", "--out", donor},
                 out, err);

  std::ostringstream oout, oerr;
  (void)cli_main({"trace", "overwrite", "--trace", donor, "--out", rewritten,
                  "--scenario", "dfs@10", "--seed", "3"},
                 oout, oerr);
  EXPECT_NE(oout.str().find("dropped 1 recorded injections, adding 1"),
            std::string::npos)
      << oout.str();

  std::ostringstream iout, ierr;
  EXPECT_EQ(cli_main({"trace", "inspect", "--trace", rewritten, "--summary"},
                     iout, ierr),
            0);
  EXPECT_NE(iout.str().find("inject=1"), std::string::npos) << iout.str();
  std::ostringstream rout, rerr;
  EXPECT_EQ(cli_main({"trace", "replay", "--trace", rewritten}, rout, rerr),
            0)
      << rerr.str();
}

TEST(CliMain, TraceCorpusAggregatesADirectory) {
  const std::string dir = temp_path("corpus_dir");
  std::filesystem::remove_all(dir);  // stale files from a prior run
  std::filesystem::create_directories(dir + "/nested");
  std::ostringstream out, err;
  ASSERT_EQ(cli_main({"trace", "record", "--family", "torus", "--nodes", "9",
                      "--out", dir + "/a.dtrace"},
                     out, err),
            0);
  ASSERT_EQ(cli_main({"trace", "record", "--family", "torus", "--nodes", "9",
                      "--codec", "raw", "--out", dir + "/nested/b.dtrace"},
                     out, err),
            0);
  ASSERT_EQ(cli_main({"trace", "record", "--family", "debruijn", "--nodes",
                      "8", "--out", dir + "/c.dtrace"},
                     out, err),
            0);

  std::ostringstream cout1, cerr1;
  EXPECT_EQ(cli_main({"trace", "corpus", "--dir", dir}, cout1, cerr1), 0)
      << cerr1.str();
  EXPECT_NE(cout1.str().find("3 trace files, 2 distinct instances"),
            std::string::npos)
      << cout1.str();
  EXPECT_NE(cout1.str().find("| 2"), std::string::npos);  // the torus group

  // An unreadable file becomes a listed failure and exit 1, not a crash.
  std::ofstream(dir + "/junk.dtrace") << "not a trace";
  std::ostringstream cout2, cerr2;
  EXPECT_EQ(cli_main({"trace", "corpus", "--dir", dir}, cout2, cerr2), 1);
  EXPECT_NE(cerr2.str().find("unreadable"), std::string::npos) << cerr2.str();

  // A missing directory is a clean error.
  std::ostringstream cout3, cerr3;
  EXPECT_EQ(cli_main({"trace", "corpus", "--dir", dir + "/nope"}, cout3,
                     cerr3),
            1);
}

// ------------------------------ serve / client ----------------------------

TEST(CliParse, ServeFullFlagSet) {
  const ServeOptions opt = parse_serve_args(
      {"--socket", "/tmp/d.sock", "--workers", "4", "--cache", "128",
       "--trace-dir", "traces", "--quiet"});
  EXPECT_EQ(opt.socket, "/tmp/d.sock");
  EXPECT_EQ(opt.workers, 4);
  EXPECT_EQ(opt.cache, 128u);
  EXPECT_EQ(opt.trace_dir, "traces");
  EXPECT_TRUE(opt.quiet);
}

TEST(CliParse, ServeRequiresSocketAndSaneValues) {
  EXPECT_THROW(parse_serve_args({}), UsageError);
  EXPECT_THROW(parse_serve_args({"--socket", "s", "--workers", "0"}),
               UsageError);
  EXPECT_THROW(parse_serve_args({"--socket", "s", "--cache", "0"}),
               UsageError);
  EXPECT_THROW(parse_serve_args({"--socket", "s", "--bogus"}), UsageError);
}

TEST(CliParse, ClientCollectsRequestsInOrder) {
  const ClientOptions opt = parse_client_args(
      {"--socket", "/tmp/d.sock", "--request", "{\"op\": \"stats\"}",
       "--request", "{\"op\": \"shutdown\"}", "--in", "session.txt"});
  EXPECT_EQ(opt.socket, "/tmp/d.sock");
  ASSERT_EQ(opt.requests.size(), 2u);
  EXPECT_EQ(opt.requests[0], "{\"op\": \"stats\"}");
  EXPECT_EQ(opt.in_file, "session.txt");
  EXPECT_FALSE(opt.shutdown);
}

TEST(CliParse, ClientRequiresSocketAndSomethingToSend) {
  EXPECT_THROW(parse_client_args({"--request", "{}"}), UsageError);
  EXPECT_THROW(parse_client_args({"--socket", "s"}), UsageError);
  const ClientOptions opt = parse_client_args({"--socket", "s", "--shutdown"});
  EXPECT_TRUE(opt.shutdown);
}

TEST(CliMain, UsageMentionsServeAndClient) {
  EXPECT_NE(usage_text().find("dtopctl serve"), std::string::npos);
  EXPECT_NE(usage_text().find("dtopctl client"), std::string::npos);
  std::ostringstream out, err;
  EXPECT_EQ(cli_main({"serve"}, out, err), 2);  // missing --socket
  EXPECT_NE(err.str().find("--socket"), std::string::npos);
}

TEST(CliMain, ClientAgainstDeadSocketFailsCleanly) {
  std::ostringstream out, err;
  const int rc = cli_main({"client", "--socket",
                           ::testing::TempDir() + "no_daemon_here.sock",
                           "--request", "{\"op\": \"stats\"}"},
                          out, err);
  EXPECT_EQ(rc, 1);
  // The friendly diagnosis, not a raw errno: names the endpoint and asks
  // the obvious question.
  EXPECT_NE(err.str().find("connection refused: is dtopd running at"),
            std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("no_daemon_here.sock"), std::string::npos)
      << err.str();

  // loadgen reports the same diagnosis instead of aborting a worker.
  std::ostringstream lout, lerr;
  EXPECT_EQ(cli_main({"loadgen", "--endpoint",
                      ::testing::TempDir() + "no_daemon_here.sock",
                      "--requests", "4", "--instances", "1", "--quiet"},
                     lout, lerr),
            1);
  EXPECT_NE(lerr.str().find("connection refused: is dtopd running at"),
            std::string::npos)
      << lerr.str();
}

TEST(CliParse, ServeListenAndCacheStore) {
  const ServeOptions opt = parse_serve_args(
      {"--listen", "127.0.0.1:0", "--cache-store", "warm.cache"});
  EXPECT_EQ(opt.listen, "127.0.0.1:0");
  EXPECT_TRUE(opt.socket.empty());
  EXPECT_EQ(opt.cache_store, "warm.cache");
  // Exactly one transport: both is as much an operator error as neither.
  EXPECT_THROW(parse_serve_args({"--socket", "s", "--listen", "h:1"}),
               UsageError);
}

TEST(CliParse, LoadgenFullFlagSetAndValidation) {
  const LoadgenOptions opt = parse_loadgen_args(
      {"--endpoint", "127.0.0.1:9001", "--concurrency", "8", "--rate", "250",
       "--requests", "1000", "--duration", "2.5", "--zipf", "0.9",
       "--instances", "24", "--mix", "determine=4,verify=1", "--seed", "7",
       "--bench-json", "bench_out", "--quiet"});
  EXPECT_EQ(opt.endpoint, "127.0.0.1:9001");
  EXPECT_EQ(opt.concurrency, 8);
  EXPECT_EQ(opt.rate, 250.0);
  EXPECT_EQ(opt.requests, 1000u);
  EXPECT_EQ(opt.duration, 2.5);
  EXPECT_EQ(opt.zipf, 0.9);
  EXPECT_EQ(opt.instances, 24);
  EXPECT_EQ(opt.mix, "determine=4,verify=1");
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_EQ(opt.bench_json, "bench_out");
  EXPECT_TRUE(opt.quiet);

  EXPECT_THROW(parse_loadgen_args({}), UsageError);  // needs a target
  EXPECT_THROW(parse_loadgen_args({"--endpoint", "e", "--concurrency", "0"}),
               UsageError);
  // Bad numbers are UsageErrors (exit 2), never raw std exceptions.
  EXPECT_THROW(parse_loadgen_args({"--endpoint", "e", "--zipf", "zebra"}),
               UsageError);
  EXPECT_THROW(parse_loadgen_args({"--endpoint", "e", "--mix", "nope=1"}),
               UsageError);
  EXPECT_THROW(parse_loadgen_args({"--endpoint", "e", "--mix", "determine=0"}),
               UsageError);
  EXPECT_THROW(parse_loadgen_args({"--endpoint", "e", "--instances", "49"}),
               UsageError);
}

TEST(CliParse, GenPermuteFlag) {
  const GenOptions opt = parse_gen_args(
      {"--family", "debruijn", "--nodes", "16", "--permute", "7"});
  EXPECT_TRUE(opt.permute);
  EXPECT_EQ(opt.permute_seed, 7u);
  EXPECT_FALSE(parse_gen_args({"--family", "torus"}).permute);
}

TEST(CliMain, GenPermuteEmitsARootedIsomorphicRelabelling) {
  std::ostringstream plain_out, perm_out, err;
  ASSERT_EQ(cli_main({"gen", "--family", "debruijn", "--nodes", "16",
                      "--out", "-"},
                     plain_out, err),
            0);
  ASSERT_EQ(cli_main({"gen", "--family", "debruijn", "--nodes", "16",
                      "--permute", "7", "--out", "-"},
                     perm_out, err),
            0);
  // A genuine relabelling: different bytes, same rooted canonical form —
  // so the dtopd cache treats them as one network.
  EXPECT_NE(plain_out.str(), perm_out.str());
  const PortGraph a = graph_from_string(plain_out.str());
  const PortGraph b = graph_from_string(perm_out.str());
  EXPECT_EQ(canonical_hash(a, 0), canonical_hash(b, 0));
}

TEST(CliMain, ClusterSurfaceIsGone) {
  // One daemon serves more requests than a one-host cluster with the same
  // workers (EXPERIMENTS.md), so the subcommand and its flags are gone.
  {
    std::ostringstream out, err;
    EXPECT_EQ(cli_main({"cluster", "--shards", "2"}, out, err), 2);
    EXPECT_NE(err.str().find("unknown subcommand 'cluster'"),
              std::string::npos)
        << err.str();
  }
  // Each removed flag's name and a command line that used to take it.
  const std::vector<std::pair<std::vector<std::string>, std::string>> removed =
      {
          {{"sweep", "--families", "torus"}, "cluster"},
          {{"client", "--socket", "s"}, "cluster"},
          {{"loadgen", "--endpoint", "e"}, "cluster"},
          {{"metrics", "--endpoint", "e"}, "cluster"},
          {{"top", "--endpoint", "e"}, "cluster"},
          {{"metrics", "--endpoint", "e"}, "per-shard"},
          {{"top", "--endpoint", "e"}, "per-shard"},
          {{"loadgen", "--endpoint", "e"}, "replicas"},
      };
  const std::string usage = usage_text();
  for (auto [args, name] : removed) {
    const std::string flag = "--" + name;
    args.push_back(flag);
    args.push_back("1");
    std::ostringstream out, err;
    EXPECT_EQ(cli_main(args, out, err), 2) << args[0] << " " << flag;
    EXPECT_NE(err.str().find("unknown flag '" + flag + "' for '" + args[0] +
                             "'"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_EQ(usage.find("dtopctl cluster"), std::string::npos);
  EXPECT_NE(usage.find("--permute"), std::string::npos);
}

}  // namespace
}  // namespace dtop::cli
