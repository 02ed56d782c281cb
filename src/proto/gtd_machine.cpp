#include "proto/gtd_machine.hpp"

namespace dtop {

GtdMachine::GtdMachine(const MachineEnv& env, const Config& cfg)
    : env_(env), cfg_(cfg) {
  DTOP_CHECK(env_.delta >= 1 && env_.delta <= kMaxDegree, "bad delta");
  DTOP_CHECK(cfg_.protocol.snake_delay >= 0 && cfg_.protocol.loop_delay >= 0 &&
                 cfg_.protocol.token_delay >= 0,
             "negative delay");
}

void GtdMachine::step(Ctx& ctx) {
  grow_killed_now_ = 0;

  // Initiation: the root is nudged out of quiescence by its master computer
  // (delivered as an engine schedule, not a wire character).
  if (env_.is_root && !st_.dfs.started) dfs_start_root(ctx);

  // Lane-skip dispatch: every handler below is driven by its own input
  // lanes, so the inputs' presence masks are ORed once and only handlers
  // with work are called. Lane order within the tick: cleanup first (a KILL
  // contact erases characters arriving in the same pulse), then snakes,
  // then tokens, then the DFS driver; finally all emissions staged for this
  // tick depart.
  std::uint16_t lanes = 0;
  for (Port p = 0; p < env_.delta; ++p)
    if (const Character* in = ctx.input(p)) lanes |= in->lanes;
  if (lanes & (kLaneKill | kLaneBkill)) handle_kill(ctx, lanes);
  if (lanes & kLaneGrowAll) handle_grow(ctx, lanes);
  if (lanes & kLaneDieAll) handle_die(ctx, lanes);
  if (lanes & kLaneRloop) handle_rloop(ctx);
  if (lanes & kLaneBloop) handle_bloop(ctx);
  if (lanes & kLaneDfs) handle_dfs(ctx);
  if (!idle()) emit_pending(ctx);
}

bool GtdMachine::pristine() const {
  for (const auto& g : st_.grow)
    if (g.visited) return false;
  for (const auto& d : st_.die_stream)
    if (d.phase != DieStream::Phase::kNone) return false;
  if (st_.loop.any() || st_.bca_marks.has || st_.bca_marks.target) return false;
  if (st_.conv_grow.active || st_.conv_die.active) return false;
  if (!idle()) return false;
  if (st_.rca_phase != RcaPhase::kIdle || st_.og_closed) return false;
  if (st_.bca_phase != BcaPhase::kIdle) return false;
  if (env_.is_root && st_.root_phase != RootPhase::kOpen) return false;
  return true;
}

void GtdMachine::enqueue_snake(SnakeLane lane, const SnakeChar& ch, Route route,
                               Port port, int delay) {
  // FIFO-per-lane sanity: within one lane, emission times never reorder.
  for (std::size_t i = st_.outq.size(); i > 0; --i) {
    const PendingSnake& prev = st_.outq[i - 1];
    if (prev.lane == lane) {
      const int prev_delay = static_cast<std::uint8_t>(prev.due - st_.clock);
      DTOP_CHECK(prev_delay <= delay, "snake lane FIFO violation");
      break;
    }
  }
  PendingSnake ps;
  ps.lane = lane;
  ps.ch = ch;
  ps.route = route;
  ps.port = port;
  ps.due = static_cast<std::uint8_t>(st_.clock + delay);
  st_.outq.push_back(ps);
}

inline void GtdMachine::write_snake(Ctx& ctx, Port port, SnakeLane lane,
                                    const SnakeChar& ch) {
  Character& m = ctx.out(port);
  if (is_grow_lane(lane)) {
    const int i = index_of(grow_of(lane));
    DTOP_CHECK(!m.has_grow(i), "grow-lane wire collision");
    m.set_grow(i, ch);
  } else {
    const int i = index_of(die_of(lane));
    DTOP_CHECK(!m.has_die(i), "die-lane wire collision");
    m.set_die(i, ch);
  }
}

inline void GtdMachine::emit_snake(Ctx& ctx, const PendingSnake& ps) {
  switch (ps.route) {
    case Route::kPort:
      write_snake(ctx, ps.port, ps.lane, ps.ch);
      break;
    case Route::kBroadcastSame:
      for_each_out_port([&](Port p) { write_snake(ctx, p, ps.lane, ps.ch); });
      break;
    case Route::kBroadcastPerPort:
      for_each_out_port([&](Port p) {
        SnakeChar c = ps.ch;
        c.out = p;
        write_snake(ctx, p, ps.lane, c);
      });
      break;
  }
}

void GtdMachine::emit_pending(Ctx& ctx) {
  // Emit due snake characters in queue order; the rest stay where they are
  // (only compacted past emitted entries) until the clock reaches them.
  std::size_t w = 0;
  for (std::size_t r = 0; r < st_.outq.size(); ++r) {
    const PendingSnake& ps = st_.outq[r];
    if (ps.due == st_.clock) {
      emit_snake(ctx, ps);
    } else {
      if (w != r) st_.outq[w] = ps;
      ++w;
    }
  }
  st_.outq.truncate(w);
  ++st_.clock;

  if (st_.kill_out) {
    for_each_out_port([&](Port p) { ctx.out(p).set_kill(true); });
    st_.kill_out = false;
  }
  if (st_.bkill_out) {
    for_each_out_port([&](Port p) { ctx.out(p).set_bkill(true); });
    st_.bkill_out = false;
  }
  if (st_.rtok.present) {
    if (st_.rtok.delay == 0) {
      Character& m = ctx.out(st_.rtok.port);
      DTOP_CHECK(!m.has_rloop(), "rloop wire collision");
      m.set_rloop(st_.rtok.tok);
      st_.rtok = PendingRcaToken{};
    } else {
      --st_.rtok.delay;
    }
  }
  if (st_.btok.present) {
    if (st_.btok.delay == 0) {
      Character& m = ctx.out(st_.btok.port);
      DTOP_CHECK(!m.has_bloop(), "bloop wire collision");
      m.set_bloop(st_.btok.tok);
      st_.btok = PendingBcaToken{};
    } else {
      --st_.btok.delay;
    }
  }
  if (st_.dfs_out.present) {
    if (st_.dfs_out.delay == 0) {
      Character& m = ctx.out(st_.dfs_out.port);
      DTOP_CHECK(!m.has_dfs(), "dfs wire collision");
      m.set_dfs(st_.dfs_out.tok);
      st_.dfs_out = PendingDfs{};
    } else {
      --st_.dfs_out.delay;
    }
  }
}

void GtdMachine::emit_event(Ctx& ctx, TranscriptEvent::Kind kind, Port out,
                            Port in) {
  DTOP_CHECK(env_.is_root, "transcript events originate at the root");
  if (!cfg_.transcript) return;
  TranscriptEvent ev;
  ev.kind = kind;
  ev.tick = ctx.now();
  ev.out = out;
  ev.in = in;
  cfg_.transcript->emit(ev);
}

}  // namespace dtop
