// Dying snakes (paper Section 2.3.3).
//
// A dying snake marks a path: each processor on the path consumes the head
// character it receives — fixing its predecessor in-port and successor
// out-port — and promotes the next body character to be the head for the
// following processor. ID snakes set slot #1 of the loop marks, OD snakes
// slot #2, BD snakes the BCA marks. A processor that consumes a head
// immediately followed by the tail is the last processor of the path; for a
// BD snake that identifies the BCA target.
#include "proto/gtd_machine.hpp"

namespace dtop {

Port GtdMachine::die_succ(DieKind kind) const {
  switch (kind) {
    case DieKind::kID: return st_.loop.succ1;
    case DieKind::kOD: return st_.loop.succ2;
    case DieKind::kBD: return st_.bca_marks.succ;
  }
  unreachable("die_succ");
}

void GtdMachine::handle_die(Ctx& ctx, std::uint16_t lanes) {
  for (int i = 0; i < kNumSnakeKinds; ++i) {
    if (!(lanes & (kLaneDie0 << i))) continue;
    const DieKind kind = die_kind(i);
    for (Port p = 0; p < env_.delta; ++p) {
      const Character* in = ctx.input(p);
      if (!in || !in->has_die(i)) continue;
      const SnakeChar c = in->die(i);
      DTOP_CHECK(c.part == SnakePart::kTail || c.in != kStarPort,
                 "dying characters carry resolved labels");
      handle_die_char(ctx, kind, c, p);
    }
  }
}

void GtdMachine::handle_die_char(Ctx& ctx, DieKind kind, const SnakeChar& c,
                                 Port p) {
  // 1. Active dying-stream conversion (root: ID -> OD).
  if (st_.conv_die.active && !st_.conv_die.from_grow &&
      st_.conv_die.src == static_cast<std::uint8_t>(index_of(kind)) &&
      st_.conv_die.in_port == p) {
    converter_consume(ctx, st_.conv_die, c);
    return;
  }

  // 2. Root interception of the ID head (start of the ID -> OD conversion).
  if (kind == DieKind::kID && env_.is_root &&
      st_.root_phase == RootPhase::kAwaitDying) {
    root_on_idh(ctx, c, p);
    return;
  }

  // 3. RCA initiator: the bare ODT tail signals that the whole loop is
  //    marked (Section 4.2.1, end of step 3).
  if (kind == DieKind::kOD && c.part == SnakePart::kTail &&
      st_.rca_phase == RcaPhase::kWaitOdt) {
    rca_on_odt(ctx, p);
    return;
  }

  // 4. BCA initiator: the BD tail returning through the requested in-port
  //    signals that the loop is marked.
  if (kind == DieKind::kBD && c.part == SnakePart::kTail &&
      st_.bca_phase == BcaPhase::kWaitMarkDone && p == st_.bca_req_in) {
    bca_on_bdt_return(ctx);
    return;
  }

  // 5. Generic path-marking behaviour.
  DieStream& stream = st_.die_stream[index_of(kind)];
  const int delay = cfg_.protocol.snake_delay;
  switch (stream.phase) {
    case DieStream::Phase::kNone: {
      DTOP_CHECK(c.part == SnakePart::kHead,
                 "dying stream must start with a head character");
      switch (kind) {
        case DieKind::kID:
          DTOP_CHECK(!st_.loop.has1, "loop slot 1 already marked");
          st_.loop.has1 = true;
          st_.loop.pred1 = p;
          st_.loop.succ1 = c.out;
          break;
        case DieKind::kOD:
          DTOP_CHECK(!st_.loop.has2, "loop slot 2 already marked");
          st_.loop.has2 = true;
          st_.loop.pred2 = p;
          st_.loop.succ2 = c.out;
          break;
        case DieKind::kBD:
          DTOP_CHECK(!st_.bca_marks.has, "BCA marks already set");
          st_.bca_marks.has = true;
          st_.bca_marks.pred = p;
          st_.bca_marks.succ = c.out;
          break;
      }
      stream.phase = DieStream::Phase::kAwaitPromote;
      stream.pred = p;
      return;  // the head character is consumed, not forwarded
    }
    case DieStream::Phase::kAwaitPromote: {
      DTOP_CHECK(p == stream.pred, "dying stream switched in-ports");
      if (c.part == SnakePart::kTail) {
        // Head-then-tail: this processor is the last one on the path.
        if (kind == DieKind::kBD) st_.bca_marks.target = true;
        enqueue_snake(lane_of(kind), c, Route::kPort, die_succ(kind), delay);
        stream = DieStream{};
        return;
      }
      SnakeChar head = c;
      head.part = SnakePart::kHead;
      enqueue_snake(lane_of(kind), head, Route::kPort, die_succ(kind), delay);
      stream.phase = DieStream::Phase::kPassThrough;
      return;
    }
    case DieStream::Phase::kPassThrough: {
      DTOP_CHECK(p == stream.pred, "dying stream switched in-ports");
      enqueue_snake(lane_of(kind), c, Route::kPort, die_succ(kind), delay);
      if (c.part == SnakePart::kTail) stream = DieStream{};
      return;
    }
  }
}

}  // namespace dtop
