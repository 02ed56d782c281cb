// Engine semantics: lockstep delivery, blank handling, active-set
// scheduling, and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "graph/families.hpp"
#include "sim/engine.hpp"
#include "support/thread_pool.hpp"

namespace dtop {
namespace {

// A tiny test machine: counts everything it receives; when primed, emits one
// token that hops forward forever.
struct HopMessage {
  int hops = 0;
};

class HopMachine {
 public:
  using Message = HopMessage;
  struct Config {};

  HopMachine(const MachineEnv& env, const Config&) : env_(env) {}

  void step(StepContext<Message>& ctx) {
    ++steps_;
    if (env_.is_root && !primed_) {
      primed_ = true;
      ctx.out(first_out()).hops = 1;
      return;
    }
    for (Port p = 0; p < env_.delta; ++p) {
      const Message* in = ctx.input(p);
      if (!in) continue;
      ++received_;
      last_hops_ = in->hops;
      ctx.out(first_out()).hops = in->hops + 1;
    }
  }

  bool idle() const { return true; }
  bool terminated() const { return false; }

  int steps() const { return steps_; }
  int received() const { return received_; }
  int last_hops() const { return last_hops_; }

 private:
  Port first_out() const {
    for (Port p = 0; p < env_.delta; ++p)
      if (env_.out_mask & (1u << p)) return p;
    return 0;
  }
  MachineEnv env_;
  bool primed_ = false;
  int steps_ = 0;
  int received_ = 0;
  int last_hops_ = 0;
};

TEST(Engine, OneHopPerTick) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  e.step();  // root emits hops=1 toward node 1
  e.step();  // node 1 receives
  EXPECT_EQ(e.machine(1).received(), 1);
  EXPECT_EQ(e.machine(1).last_hops(), 1);
  EXPECT_EQ(e.machine(2).received(), 0);
  e.step();
  EXPECT_EQ(e.machine(2).received(), 1);
  EXPECT_EQ(e.machine(2).last_hops(), 2);
}

TEST(Engine, IdleNodesAreNotStepped) {
  const PortGraph g = directed_ring(8);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  for (int i = 0; i < 4; ++i) e.step();
  // The token has visited nodes 1..3; nodes 5..7 were never touched.
  EXPECT_GT(e.machine(1).steps(), 0);
  EXPECT_EQ(e.machine(5).steps(), 0);
  EXPECT_EQ(e.machine(6).steps(), 0);
  // Active set is exactly one node per tick here.
  EXPECT_EQ(e.stats().max_active, 1u);
}

TEST(Engine, MessagesCounted) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  for (int i = 0; i < 10; ++i) e.step();
  EXPECT_EQ(e.stats().messages, 10u);  // one character per tick
  EXPECT_EQ(e.stats().ticks, 10);
}

TEST(Engine, StagedMessageVisible) {
  const PortGraph g = directed_ring(3);
  SyncEngine<HopMachine> e(g, 0, {});
  e.schedule(0);
  e.step();
  const WireId w01 = g.out_wire(0, 0);
  ASSERT_TRUE(e.wire_pending(w01));
  ASSERT_NE(e.staged_message(w01), nullptr);
  EXPECT_EQ(e.staged_message(w01)->hops, 1);
  const WireId w12 = g.out_wire(1, 0);
  EXPECT_FALSE(e.wire_pending(w12));
  EXPECT_EQ(e.staged_message(w12), nullptr);
}

TEST(Engine, RootOutOfRangeRejected) {
  const PortGraph g = directed_ring(3);
  EXPECT_THROW((SyncEngine<HopMachine>(g, 7, {})), Error);
}

TEST(Engine, ParallelMatchesSequentialHops) {
  const PortGraph g = bidirectional_ring(16);
  SyncEngine<HopMachine> seq(g, 0, {}, 1);
  SyncEngine<HopMachine> par(g, 0, {}, 4);
  seq.schedule(0);
  par.schedule(0);
  for (int i = 0; i < 40; ++i) {
    seq.step();
    par.step();
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(seq.machine(v).received(), par.machine(v).received()) << v;
    EXPECT_EQ(seq.machine(v).last_hops(), par.machine(v).last_hops()) << v;
  }
  EXPECT_EQ(seq.stats().messages, par.stats().messages);
}

// Probe for the engine's reuse of one StepContext across a step range: every
// node stays busy for kProbeLife steps and, each step, sends on a
// pseudo-random subset of its connected out-ports a character naming its
// sending port. It records which inputs it saw and where each came from.
struct ProbeMessage {
  NodeId from = kNoNode;
  Port out_port = kNoPort;
  Tick sent = 0;
};

class ProbeMachine {
 public:
  using Message = ProbeMessage;
  struct Config {};
  static constexpr std::size_t kProbeLife = 30;

  struct Step {
    Tick tick = 0;
    std::uint8_t in_mask = 0;   // inputs that were non-null
    std::uint8_t out_mask = 0;  // out-ports this step sent on
    ProbeMessage in[kMaxDegree];
  };

  ProbeMachine(const MachineEnv& env, const Config&) : env_(env) {}

  void step(StepContext<Message>& ctx) {
    Step st;
    st.tick = ctx.now();
    for (Port p = 0; p < env_.delta; ++p) {
      if (const Message* in = ctx.input(p)) {
        st.in_mask |= static_cast<std::uint8_t>(1u << p);
        st.in[p] = *in;
      }
    }
    if (steps_.size() < kProbeLife) {
      for (Port p = 0; p < env_.delta; ++p) {
        if (!(env_.out_mask & (1u << p))) continue;
        const std::uint64_t key =
            (std::uint64_t{env_.debug_id} << 32) ^
            (static_cast<std::uint64_t>(st.tick) << 4) ^ p;
        if (((key * 0x9E3779B97F4A7C15ull) >> 61) & 1u) continue;
        ctx.out(p) = Message{env_.debug_id, p, st.tick};
        st.out_mask |= static_cast<std::uint8_t>(1u << p);
      }
    }
    steps_.push_back(st);
  }

  bool idle() const { return steps_.size() >= kProbeLife; }
  bool terminated() const { return false; }

  const std::vector<Step>& steps() const { return steps_; }

 private:
  MachineEnv env_;
  std::vector<Step> steps_;
};

// The engine fills one StepContext per step range and rewrites only the
// inputs and out-wire row per node. On graphs whose consecutive active
// nodes differ in connected ports (tombstoned wires, a tree with a loop), a
// node must still see exactly the characters its own in-wires carry — none
// left over from the node stepped before it — and its sends must land on
// its own out-wires, inline (1 thread) and on forked ticks (4 threads,
// grain 1: every tick with >= 2 active nodes forks).
TEST(Engine, ReusedContextSeesOnlyThisNodesInputs) {
  const PortGraph graphs[] = {degraded_grid(5, 5, 0.3, 3),
                              make_family("treeloop", 15, 1).graph};
  for (const PortGraph& g : graphs) {
    for (const int threads : {1, 4}) {
      EngineOptions opt;
      opt.num_threads = threads;
      opt.parallel_grain = 1;
      SyncEngine<ProbeMachine> e(g, 0, {}, opt);
      for (NodeId v = 0; v < g.num_nodes(); ++v) e.schedule(v);
      for (std::size_t t = 0; t < 2 * ProbeMachine::kProbeLife; ++t) {
        // What each node must see this tick: the in-flight characters of
        // its own in-wires.
        std::vector<std::uint8_t> want(g.num_nodes(), 0);
        for (const WireId w : g.wire_ids())
          if (e.wire_pending(w))
            want[g.wire(w).to] |=
                static_cast<std::uint8_t>(1u << g.wire(w).in_port);
        std::vector<std::size_t> before(g.num_nodes());
        for (NodeId v = 0; v < g.num_nodes(); ++v)
          before[v] = e.machine(v).steps().size();

        e.step();

        std::vector<std::uint8_t> sent(g.num_nodes(), 0);
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          const auto& steps = e.machine(v).steps();
          if (steps.size() == before[v]) {
            EXPECT_EQ(+want[v], 0) << "node " << v << " not stepped";
            continue;
          }
          ASSERT_EQ(steps.size(), before[v] + 1);
          const ProbeMachine::Step& st = steps.back();
          EXPECT_EQ(st.tick, e.now());
          EXPECT_EQ(+st.in_mask, +want[v])
              << "node " << v << " tick " << e.now() << " threads " << threads;
          for (Port p = 0; p < g.delta(); ++p) {
            if (!(st.in_mask & (1u << p)) || !(want[v] & (1u << p))) continue;
            const Wire& w = g.wire(g.in_wire(v, p));
            EXPECT_EQ(st.in[p].from, w.from) << "node " << v << " port " << +p;
            EXPECT_EQ(st.in[p].out_port, w.out_port);
            EXPECT_EQ(st.in[p].sent, e.now() - 1);
          }
          sent[v] = st.out_mask;
        }
        // Every staged wire was sent by its own source through its own
        // out-port this tick, and every recorded send is staged.
        for (const WireId w : g.wire_ids()) {
          const Wire& wire = g.wire(w);
          const bool recorded = (sent[wire.from] >> wire.out_port) & 1u;
          ASSERT_EQ(e.wire_pending(w), recorded) << "wire " << w;
          if (!recorded) continue;
          EXPECT_EQ(e.staged_message(w)->from, wire.from);
          EXPECT_EQ(e.staged_message(w)->out_port, wire.out_port);
          EXPECT_EQ(e.staged_message(w)->sent, e.now());
        }
      }
    }
  }
}

TEST(ThreadPool, AllIndicesRun) {
  ThreadPool pool(4);
  std::atomic<int> mask{0};
  pool.run([&](int i) { mask.fetch_or(1 << i); });
  EXPECT_EQ(mask.load(), 0b1111);
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round)
    pool.run([&](int) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 150);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int x = 0;
  pool.run([&](int i) {
    EXPECT_EQ(i, 0);
    x = 42;
  });
  EXPECT_EQ(x, 42);
}

TEST(ThreadPool, ExceptionPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.run([&](int i) {
        if (i == 2) throw Error("boom");
      }),
      Error);
  // Pool survives and remains usable.
  std::atomic<int> count{0};
  pool.run([&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 4);
}

TEST(ThreadPool, RejectsZeroThreads) { EXPECT_THROW(ThreadPool(0), Error); }

// --- inject / wire introspection contract --------------------------------

TEST(EngineInject, PlacesMessageInFlightAndSchedulesTarget) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(2, 0);  // 2 -> 3

  EXPECT_FALSE(e.wire_pending(w));
  EXPECT_EQ(e.staged_message(w), nullptr);

  HopMessage m;
  m.hops = 5;
  e.inject(w, m);
  EXPECT_TRUE(e.wire_pending(w));
  ASSERT_NE(e.staged_message(w), nullptr);
  EXPECT_EQ(e.staged_message(w)->hops, 5);
  EXPECT_EQ(e.stats().messages, 1u);

  // Delivered at the next tick; the injection alone scheduled the target.
  e.step();
  EXPECT_EQ(e.machine(3).received(), 1);
  EXPECT_EQ(e.machine(3).last_hops(), 5);
  EXPECT_EQ(e.machine(1).received(), 0);
}

TEST(EngineInject, OverwriteInFlightKeepsOneMessage) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(1, 0);  // 1 -> 2

  HopMessage m;
  m.hops = 5;
  e.inject(w, m);
  m.hops = 9;
  e.inject(w, m);  // overwrites the character already in flight

  // One character on the wire, the last payload wins, counted once.
  EXPECT_TRUE(e.wire_pending(w));
  ASSERT_NE(e.staged_message(w), nullptr);
  EXPECT_EQ(e.staged_message(w)->hops, 9);
  EXPECT_EQ(e.stats().messages, 1u);

  e.step();
  EXPECT_EQ(e.machine(2).received(), 1);
  EXPECT_EQ(e.machine(2).last_hops(), 9);
}

TEST(EngineInject, OverwritesEngineStagedMessage) {
  // The root stages hops=1 during tick 1; injecting on the same wire
  // between ticks clobbers the staged character, not a copy.
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w = g.out_wire(0, 0);  // 0 -> 1
  e.schedule(0);
  e.step();
  ASSERT_TRUE(e.wire_pending(w));
  EXPECT_EQ(e.staged_message(w)->hops, 1);
  const std::uint64_t sent_before = e.stats().messages;

  HopMessage m;
  m.hops = 77;
  e.inject(w, m);
  EXPECT_EQ(e.stats().messages, sent_before);  // overwrite adds no message
  e.step();
  EXPECT_EQ(e.machine(1).received(), 1);
  EXPECT_EQ(e.machine(1).last_hops(), 77);
}

TEST(EngineInject, StagedMessageWindowIsOneTick) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  const WireId w01 = g.out_wire(0, 0);
  const WireId w12 = g.out_wire(1, 0);
  e.schedule(0);
  e.step();  // root stages on 0->1
  EXPECT_TRUE(e.wire_pending(w01));
  EXPECT_FALSE(e.wire_pending(w12));
  e.step();  // 0->1 consumed; node 1 stages on 1->2
  EXPECT_FALSE(e.wire_pending(w01));
  EXPECT_EQ(e.staged_message(w01), nullptr);
  EXPECT_TRUE(e.wire_pending(w12));
  ASSERT_NE(e.staged_message(w12), nullptr);
  EXPECT_EQ(e.staged_message(w12)->hops, 2);
}

TEST(EngineInject, RejectsBadWires) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  HopMessage m;
  EXPECT_THROW(e.inject(g.wire_slots(), m), Error);
  EXPECT_THROW(e.inject(kNoWire, m), Error);
}

// --- trace sink ----------------------------------------------------------

// Collects sink callbacks as strings so ordering is easy to assert.
class StringSink : public EngineTraceSink<HopMessage> {
 public:
  void on_schedule(Tick now, NodeId v) override {
    log.push_back("sched@" + std::to_string(now) + " n" + std::to_string(v));
  }
  void on_step(Tick tick, NodeId v) override {
    log.push_back("step@" + std::to_string(tick) + " n" + std::to_string(v));
  }
  void on_send(Tick tick, WireId w, const HopMessage& m) override {
    log.push_back("send@" + std::to_string(tick) + " w" + std::to_string(w) +
                  " h" + std::to_string(m.hops));
  }
  void on_inject(Tick now, WireId w, const HopMessage& m,
                 bool overwrote) override {
    log.push_back("inj@" + std::to_string(now) + " w" + std::to_string(w) +
                  " h" + std::to_string(m.hops) + (overwrote ? " ow" : ""));
  }
  std::vector<std::string> log;
};

TEST(EngineTraceSinkTest, EmitsStepsSendsSchedulesAndInjects) {
  const PortGraph g = directed_ring(4);
  SyncEngine<HopMachine> e(g, 0, {});
  StringSink sink;
  e.set_trace_sink(&sink);
  e.schedule(0);
  e.step();  // root steps, stages hops=1 on wire 0->1
  HopMessage m;
  m.hops = 50;
  e.inject(g.out_wire(2, 0), m);
  e.step();

  const std::vector<std::string> expected = {
      "sched@0 n0",
      "step@1 n0",
      "send@1 w" + std::to_string(g.out_wire(0, 0)) + " h1",
      "inj@1 w" + std::to_string(g.out_wire(2, 0)) + " h50",
      "step@2 n1",
      "step@2 n3",
      "send@2 w" + std::to_string(g.out_wire(1, 0)) + " h2",
      "send@2 w" + std::to_string(g.out_wire(3, 0)) + " h51",
  };
  EXPECT_EQ(sink.log, expected);
}

TEST(EngineTraceSinkTest, SequentialAndParallelEnginesEmitIdenticalStreams) {
  // Active sets above 2 * kParallelGrain so an 8-thread engine actually
  // forks every tick, yet the emitted stream must match the sequential one
  // exactly (post-join emission in merge order).
  const PortGraph g = de_bruijn(8);  // 256 nodes > 2 * kParallelGrain
  std::vector<std::string> logs[2];
  const int threads[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    SyncEngine<HopMachine> e(g, 0, {}, threads[i]);
    StringSink sink;
    e.set_trace_sink(&sink);
    for (int t = 0; t < 8; ++t) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) e.schedule(v);
      e.step();
    }
    logs[i] = std::move(sink.log);
  }
  EXPECT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]);
}

}  // namespace
}  // namespace dtop
