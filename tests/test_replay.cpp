// Record -> replay round trips (the acceptance contract of the trace
// subsystem): traces are bit-identical at any engine thread count, replay
// reproduces a recording exactly, and perturbed traces are caught with the
// first divergent tick pinpointed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/gtd.hpp"
#include "graph/families.hpp"
#include "graph/random_graph.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "support/bytes.hpp"
#include "trace/codec.hpp"
#include "trace/container.hpp"
#include "trace/span_collector.hpp"
#include "trace/trace_diff.hpp"
#include "trace/trace_io.hpp"

namespace dtop {
namespace {

trace::RecordedTrace record_run(const PortGraph& g, int threads,
                                const GtdOptions& base = {}) {
  trace::TraceRecorder rec;
  GtdOptions opt = base;
  opt.num_threads = threads;
  opt.trace = &rec;
  const GtdResult res = run_gtd(g, 0, opt);
  EXPECT_EQ(res.status, RunStatus::kTerminated);
  return rec.take();
}

std::string serialize(const trace::RecordedTrace& t) {
  std::stringstream ss;
  trace::Dtr2Options opts;
  opts.codec = trace::TraceCodec::kRaw;
  trace::write_trace_dtr2(ss, t, opts);
  return ss.str();
}

// The headline acceptance criterion: record at --threads 1 and --threads 8
// on several graph families; the traces must serialize byte-identically,
// and replay must reproduce them event-for-event.
TEST(Replay, RecordReplayRoundTripsAcrossFamiliesAndThreadCounts) {
  const PortGraph graphs[] = {directed_torus(3, 3), de_bruijn(3), kautz(3)};
  for (const PortGraph& g : graphs) {
    const trace::RecordedTrace t1 = record_run(g, 1);
    const trace::RecordedTrace t8 = record_run(g, 8);

    const std::string bytes1 = serialize(t1);
    EXPECT_EQ(bytes1, serialize(t8))
        << "trace bytes differ between --threads 1 and --threads 8";
    EXPECT_TRUE(trace::diff_traces(t1, t8).identical);

    // Round trip through the binary format, then replay at both thread
    // counts; the replay must be divergence-free.
    std::stringstream ss(bytes1);
    const trace::RecordedTrace back = trace::read_trace(ss);
    for (const int threads : {1, 8}) {
      const ReplayResult r = replay_gtd(back, threads);
      EXPECT_TRUE(r.ok) << "threads=" << threads << ": " << r.detail;
      EXPECT_FALSE(r.diverged);
    }
  }
}

// Byte identity across code changes, not only across thread counts: the
// raw-codec DTR2 bytes of three complete runs are pinned (length and
// FNV-1a 64). A refactor of the machine or the wire character that changes
// any recorded send, tick or transcript event changes these values. Each
// run is recorded inline (1 thread) and forked (4 threads, grain 1: every
// tick with >= 2 active nodes forks and stages atomically); N <= 16 never
// forks at the default grain.
TEST(Replay, GoldenTraceDigestsArePinned) {
  struct Golden {
    const char* family;
    NodeId nodes;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {"debruijn", 16, 314673, 0x7d28f22e9ee716c9ull},
      {"torus", 16, 304536, 0x893ba6f8410f1d72ull},
      {"treeloop", 15, 308471, 0xe649142522c4b078ull},
  };
  GtdOptions grain1;
  grain1.parallel_grain = 1;
  for (const Golden& gold : goldens) {
    const FamilyInstance inst = make_family(gold.family, gold.nodes, 1);
    for (const int threads : {1, 4}) {
      const std::string bytes =
          serialize(record_run(inst.graph, threads, grain1));
      EXPECT_EQ(bytes.size(), gold.bytes) << inst.label << " x" << threads;
      EXPECT_EQ(fnv1a64(bytes), gold.fnv) << inst.label << " x" << threads;
    }
  }
}

// The same three runs' DTR2 bytes under the dlz codec, which is what the
// trace_roundtrip benchmark encodes: a change to the block codec, the
// record encoder or the block cut shows here. One recording per run (the
// thread count does not change a byte; see above).
TEST(Dtr2Compression, DlzBytesArePinned) {
  struct Golden {
    const char* family;
    NodeId nodes;
    std::size_t bytes;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {"debruijn", 16, 116015, 0x4bc6225e4e92dbe1ull},
      {"torus", 16, 116959, 0x458de066129b5603ull},
      {"treeloop", 15, 134289, 0xa1f0c9a4b36462c8ull},
  };
  trace::Dtr2Options dlz;
  dlz.codec = trace::TraceCodec::kDlz;
  for (const Golden& gold : goldens) {
    const FamilyInstance inst = make_family(gold.family, gold.nodes, 1);
    std::stringstream ss;
    trace::write_trace_dtr2(ss, record_run(inst.graph, 1), dlz);
    const std::string bytes = ss.str();
    EXPECT_EQ(bytes.size(), gold.bytes) << inst.label;
    EXPECT_EQ(fnv1a64(bytes), gold.fnv) << inst.label;
  }
}

TEST(Replay, ReplayRebuildsTheTranscript) {
  const PortGraph g = directed_torus(3, 3);
  const trace::RecordedTrace t = record_run(g, 1);
  const ReplayResult r = replay_gtd(t);
  ASSERT_TRUE(r.ok) << r.detail;
  // The trace's kRootEvent projection is exactly the replayed transcript.
  const Transcript from_trace = trace::transcript_from_trace(t.events);
  EXPECT_EQ(r.transcript.events(), from_trace.events());
  EXPECT_FALSE(from_trace.events().empty());
}

TEST(Replay, DetectsPerturbedPayloadAtItsTick) {
  const PortGraph g = de_bruijn(3);
  trace::RecordedTrace t = record_run(g, 1);

  // Flip one recorded wire send in the middle of the run.
  std::size_t victim = t.events.size();
  for (std::size_t i = t.events.size() / 2; i < t.events.size(); ++i) {
    if (t.events[i].kind == trace::TraceEventKind::kWireSend) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, t.events.size());
  t.events[victim].payload.set_kill(!t.events[victim].payload.kill());

  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.event_index, victim);
  EXPECT_EQ(r.tick, t.events[victim].tick);
  EXPECT_NE(r.detail.find("tick " + std::to_string(r.tick)),
            std::string::npos);
}

TEST(Replay, DetectsDroppedEvent) {
  const PortGraph g = directed_ring(6);
  trace::RecordedTrace t = record_run(g, 1);
  const std::size_t victim = t.events.size() / 2;
  t.events.erase(t.events.begin() + static_cast<std::ptrdiff_t>(victim));
  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
  EXPECT_LE(r.event_index, victim + 1);
}

// The two end-of-stream reports. Replay compares each tick's events as
// they are produced and then drops them, so both cases use a run of
// several thousand ticks: the divergence lands long after the first drop,
// and event_index must still be the global position in the recording.
TEST(Replay, ReportsARecordingCutShortMidRun) {
  const trace::RecordedTrace full = record_run(directed_torus(4, 4), 1);
  ASSERT_GT(full.events.back().tick, 1000);
  const std::size_t n = full.events.size();
  for (const std::size_t cut : {n / 7, n / 2}) {
    trace::RecordedTrace t = full;
    t.events.resize(cut);  // no run-end record: the run "died" here
    const ReplayResult r = replay_gtd(t);
    EXPECT_FALSE(r.ok) << "cut=" << cut;
    EXPECT_TRUE(r.diverged) << "cut=" << cut;
    EXPECT_EQ(r.event_index, cut);
    EXPECT_EQ(r.tick, full.events[cut].tick);
    EXPECT_NE(r.detail.find("past the end of the recording"),
              std::string::npos)
        << r.detail;
  }
}

TEST(Replay, ReportsARecordingThatOutlivesTheReplay) {
  // A second copy of the run-end record: the recording still ends cleanly,
  // so replay re-executes the whole run and writes its own run-end, then
  // finds one recorded event it never produced.
  trace::RecordedTrace t = record_run(directed_torus(4, 4), 1);
  const std::size_t original = t.events.size();
  ASSERT_EQ(t.events.back().kind, trace::TraceEventKind::kRunEnd);
  t.events.push_back(t.events.back());
  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
  EXPECT_EQ(r.event_index, original);
  EXPECT_EQ(r.tick, t.events.back().tick);
  EXPECT_NE(r.detail.find("was never produced"), std::string::npos)
      << r.detail;
}

// The three Lemma 4.2 reproducers (ROADMAP item 1): random strongly
// connected delta = 2 networks on which the run from root 0 was found to
// die in a DTOP_CHECK. Whether or not a run dies, its recording must
// replay faithfully — the partial trace of a violation reproduces the
// violation.
TEST(Replay, Lemma42ReproducersReplayFaithfully) {
  struct Reproducer {
    NodeId nodes;
    std::uint64_t seed;
  };
  const Reproducer reproducers[] = {
      {32, 170000542ull}, {40, 1458004414ull}, {34, 17088135744694394290ull}};
  for (const Reproducer& rp : reproducers) {
    const PortGraph g = random_strongly_connected({.nodes = rp.nodes,
                                                   .delta = 2,
                                                   .avg_out_degree = 1.75,
                                                   .seed = rp.seed});
    trace::TraceRecorder rec;
    GtdOptions opt;
    opt.trace = &rec;
    try {
      (void)run_gtd(g, 0, opt);
    } catch (const Error&) {
      // The violation under investigation; the partial trace is kept.
    }
    const trace::RecordedTrace t = rec.take();
    ASSERT_FALSE(t.events.empty()) << "seed " << rp.seed;
    const ReplayResult r = replay_gtd(t);
    EXPECT_TRUE(r.ok) << "nodes " << rp.nodes << " seed " << rp.seed << ": "
                      << r.detail;
  }
}

TEST(Replay, ReproducesInjectedFaultRuns) {
  // A recorded run with a fault injection replays through the same
  // injection path: the kInject event is both script and oracle.
  const PortGraph g = de_bruijn(3);
  const runner::FaultScenario sc = runner::make_scenario("kill@40");
  GtdOptions base;
  base.injections.push_back(runner::make_injection(g, /*seed=*/1, sc));
  base.max_ticks = 4000;  // keep the watchdog case fast

  trace::TraceRecorder rec;
  GtdOptions opt = base;
  opt.trace = &rec;
  (void)run_gtd(g, 0, opt);
  const trace::RecordedTrace t = rec.take();

  bool has_inject = false;
  for (const trace::TraceEvent& ev : t.events) {
    if (ev.kind == trace::TraceEventKind::kInject) has_inject = true;
  }
  EXPECT_TRUE(has_inject);

  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Replay, ReproducesViolationTraces) {
  // A rogue UNMARK kills the run with a protocol violation; the partial
  // trace (no run-end record) must replay cleanly — the replay reproduces
  // the violation rather than outliving the recording.
  const PortGraph g = directed_ring(5);
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  Character rogue;
  rogue.set_rloop(RcaToken{RcaToken::Kind::kUnmark, kNoPort, kNoPort});
  opt.injections.push_back(trace::TraceInjection{3, g.out_wire(3, 0), rogue});
  EXPECT_THROW(run_gtd(g, 0, opt), Error);

  const trace::RecordedTrace t = rec.take();
  ASSERT_FALSE(t.events.empty());
  EXPECT_NE(t.events.back().kind, trace::TraceEventKind::kRunEnd);

  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Replay, ReplaysSpanTracesByAttachingTheObserverFacet) {
  // A --spans recording interleaves RCA/BCA span events; replay must
  // attach the recorder as ProtoObserver too, or every span event would
  // read as a divergence. Span traces are single-threaded by contract.
  const PortGraph g = directed_ring(6);
  trace::TraceRecorder rec;
  GtdOptions opt;
  opt.trace = &rec;
  opt.observer = &rec;
  ASSERT_EQ(run_gtd(g, 0, opt).status, RunStatus::kTerminated);
  const trace::RecordedTrace t = rec.take();

  bool has_span = false;
  for (const trace::TraceEvent& ev : t.events) {
    if (ev.kind == trace::TraceEventKind::kRcaStart) has_span = true;
  }
  ASSERT_TRUE(has_span);

  const ReplayResult r = replay_gtd(t, 1);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_THROW(replay_gtd(t, 8), Error);  // observers are single-threaded
}

TEST(Replay, LiveSpansMatchSpansCollectedFromASpanRecording) {
  // One span bookkeeping, two feeds: a SpanCollector attached live must
  // report exactly the spans and erasures collect_spans() derives from a
  // --spans recording (recorder as trace sink and observer) of the same run.
  const PortGraph graphs[] = {
      directed_ring(9),
      random_strongly_connected(
          {.nodes = 16, .delta = 3, .avg_out_degree = 2.0, .seed = 5})};
  for (const PortGraph& g : graphs) {
    trace::SpanCollector live;
    GtdOptions live_opt;
    live_opt.observer = &live;
    ASSERT_EQ(run_gtd(g, 0, live_opt).status, RunStatus::kTerminated);

    trace::TraceRecorder rec;
    GtdOptions rec_opt;
    rec_opt.trace = &rec;
    rec_opt.observer = &rec;
    ASSERT_EQ(run_gtd(g, 0, rec_opt).status, RunStatus::kTerminated);
    const trace::SpanCollector offline = trace::collect_spans(rec.events());

    EXPECT_FALSE(live.rca().empty());
    EXPECT_FALSE(live.bca().empty());
    EXPECT_EQ(live.rca(), offline.rca());
    EXPECT_EQ(live.bca(), offline.bca());
    EXPECT_EQ(live.erasures(), offline.erasures());
  }
}

TEST(Replay, CatchesCodeBehaviourViaConfigMismatch) {
  // Same run recorded under ratio3, replayed with the header doctored to
  // ratio1: the re-execution behaves differently and must diverge (this is
  // the "code changed behaviour" detection path, simulated via config).
  const PortGraph g = directed_torus(3, 3);
  trace::RecordedTrace t = record_run(g, 1);
  t.header.config.snake_delay = 0;
  t.header.config.loop_delay = 0;
  const ReplayResult r = replay_gtd(t);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.diverged);
}

TEST(RunnerTraceCapture, FailedJobsGetReplayableTraces) {
  runner::CampaignSpec spec;
  spec.families = {"torus"};
  spec.sizes = {9};
  spec.scenarios = {runner::make_scenario("none"),
                    runner::make_scenario("budget@50")};

  runner::RunnerOptions opt;
  opt.threads = 2;
  opt.trace_dir = ::testing::TempDir();
  const runner::CampaignResult result = runner::run_campaign(spec, opt);
  ASSERT_EQ(result.jobs.size(), 2u);

  // The clean job records nothing; the budget-failed job gets a capture.
  EXPECT_TRUE(result.jobs[0].ok());
  EXPECT_TRUE(result.jobs[0].trace_file.empty());
  EXPECT_EQ(result.jobs[1].status, runner::JobStatus::kBudget);
  ASSERT_FALSE(result.jobs[1].trace_file.empty());

  std::ifstream in(result.jobs[1].trace_file, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const trace::RecordedTrace t = trace::read_trace(in);
  ASSERT_FALSE(t.events.empty());
  EXPECT_EQ(t.events.back().kind, trace::TraceEventKind::kRunEnd);
  EXPECT_EQ(t.events.back().tick, 50);

  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(RunnerTraceCapture, ViolationJobsGetPartialTraces) {
  // unmark@3 on a 5-ring reliably hits an unmarked processor (same setup
  // as tests/test_faults.cpp); its capture is a partial trace that still
  // replays to the same violation.
  runner::CampaignSpec spec;
  spec.families = {"dering"};
  spec.sizes = {5};
  spec.scenarios = {runner::make_scenario("unmark@3")};

  runner::RunnerOptions opt;
  opt.trace_dir = ::testing::TempDir();
  const runner::CampaignResult result = runner::run_campaign(spec, opt);
  ASSERT_EQ(result.jobs.size(), 1u);
  const runner::JobResult& job = result.jobs[0];
  if (job.status != runner::JobStatus::kViolation) {
    GTEST_SKIP() << "injection happened to be harmless: " << job.detail;
  }
  ASSERT_FALSE(job.trace_file.empty());
  std::ifstream in(job.trace_file, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  const trace::RecordedTrace t = trace::read_trace(in);
  const ReplayResult r = replay_gtd(t);
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace dtop
