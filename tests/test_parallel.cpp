// BSP parallel engine: bit-identical behaviour across thread counts (the
// determinism claim of DESIGN.md S2), on the real protocol.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/gtd.hpp"
#include "core/verify.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"
#include "trace/span_collector.hpp"
#include "trace/container.hpp"

namespace dtop {
namespace {

void expect_identical_runs(const PortGraph& g, NodeId root) {
  GtdOptions seq_opt;
  seq_opt.num_threads = 1;
  const GtdResult seq = run_gtd(g, root, seq_opt);
  ASSERT_EQ(seq.status, RunStatus::kTerminated);

  for (int threads : {2, 4, 8}) {
    GtdOptions par_opt;
    par_opt.num_threads = threads;
    const GtdResult par = run_gtd(g, root, par_opt);
    ASSERT_EQ(par.status, RunStatus::kTerminated) << threads;
    EXPECT_EQ(par.stats.ticks, seq.stats.ticks) << threads;
    EXPECT_EQ(par.stats.messages, seq.stats.messages) << threads;
    ASSERT_EQ(par.transcript.events().size(), seq.transcript.events().size())
        << threads;
    for (std::size_t i = 0; i < seq.transcript.events().size(); ++i) {
      const auto& a = seq.transcript.events()[i];
      const auto& b = par.transcript.events()[i];
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.tick, b.tick);
      EXPECT_EQ(a.out, b.out);
      EXPECT_EQ(a.in, b.in);
    }
    const VerifyResult v = verify_map(g, root, par.map);
    EXPECT_TRUE(v.ok) << v.detail;
    EXPECT_TRUE(par.end_state_clean);
  }
}

TEST(ParallelEngine, DeBruijnIdentical) { expect_identical_runs(de_bruijn(4), 0); }

TEST(ParallelEngine, TreeLoopIdentical) {
  expect_identical_runs(tree_loop_random(3, 7), 0);
}

TEST(ParallelEngine, RandomGraphsIdentical) {
  for (std::uint64_t seed : {4ull, 9ull}) {
    const PortGraph g = random_strongly_connected(
        {.nodes = 22, .delta = 3, .avg_out_degree = 2.2, .seed = seed});
    expect_identical_runs(g, 0);
  }
}

TEST(ParallelEngine, TombstonedWiresIdentical) {
  // Degraded grids carry tombstoned wire slots (disconnect() leaves holes
  // in the wire-id space); buffer indexing must stay correct under threads.
  expect_identical_runs(degraded_grid(4, 4, 0.2, 5), 0);
}

TEST(ParallelEngine, ManyThreadsMoreThanNodes) {
  // More workers than active nodes must still be correct.
  const PortGraph g = directed_ring(4);
  GtdOptions opt;
  opt.num_threads = 8;
  const GtdResult r = run_gtd(g, 0, opt);
  ASSERT_EQ(r.status, RunStatus::kTerminated);
  EXPECT_TRUE(verify_map(g, 0, r.map).ok);
}

TEST(ParallelEngine, ObserverRequiresSingleThread) {
  const PortGraph g = directed_ring(3);
  trace::SpanCollector obs;
  GtdOptions opt;
  opt.observer = &obs;
  opt.num_threads = 2;
  EXPECT_THROW(run_gtd(g, 0, opt), Error);
}

// The serialized dtop-trace capture — not just the model-time stats — must
// be byte-for-byte identical at any thread count. This is the strongest
// form of the determinism contract: every on_step/on_send/on_schedule event
// lands in the same order with the same payload.
std::string record_trace_bytes(const PortGraph& g, NodeId root, int threads) {
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.num_threads = threads;
  opt.trace = &rec;
  const GtdResult r = run_gtd(g, root, opt);
  EXPECT_EQ(r.status, RunStatus::kTerminated) << threads << " threads";
  std::ostringstream os;
  trace::Dtr2Options opts;
  opts.codec = trace::TraceCodec::kRaw;
  trace::write_trace_dtr2(os, rec.take(), opts);
  return os.str();
}

TEST(ParallelEngine, TraceBytesIdenticalAcrossThreadCounts) {
  const std::pair<const char*, PortGraph> families[] = {
      {"debruijn-16", de_bruijn(4)},
      {"tree-loop", tree_loop_random(3, 7)},
      {"degraded-grid", degraded_grid(4, 4, 0.2, 5)},
  };
  for (const auto& [label, g] : families) {
    const std::string base = record_trace_bytes(g, 0, 1);
    EXPECT_FALSE(base.empty()) << label;
    for (const int threads : {2, 8}) {
      EXPECT_EQ(record_trace_bytes(g, 0, threads), base)
          << label << " at " << threads << " threads";
    }
  }
}

TEST(ParallelEngine, GrainOneForcesForkAndStaysIdentical) {
  // parallel_grain = 1 makes every tick with >= 2 active nodes fork across
  // the pool — the degenerate maximum-parallelism setting. Results must not
  // move.
  const PortGraph g = de_bruijn(4);
  const GtdResult seq = run_gtd(g, 0);
  ASSERT_EQ(seq.status, RunStatus::kTerminated);

  GtdOptions opt;
  opt.num_threads = 4;
  opt.parallel_grain = 1;
  const GtdResult par = run_gtd(g, 0, opt);
  ASSERT_EQ(par.status, RunStatus::kTerminated);
  EXPECT_EQ(par.stats.ticks, seq.stats.ticks);
  EXPECT_EQ(par.stats.messages, seq.stats.messages);
  EXPECT_EQ(par.stats.node_steps, seq.stats.node_steps);
  EXPECT_EQ(par.transcript.to_string(), seq.transcript.to_string());
}

}  // namespace
}  // namespace dtop
