// Loop tokens on marked loops (paper Section 2.4).
//
// A processor with only slot #1 set accepts through predecessor in-port #1
// and relays through successor out-port #1; with only slot #2, likewise;
// with both, it alternates starting with slot #1. The root is the exception
// (footnote 2): it accepts through predecessor in-port #1 but relays through
// successor out-port #2. UNMARK/BUNMARK tokens clear the slot they traverse.
#include "proto/gtd_machine.hpp"

namespace dtop {

void GtdMachine::handle_rloop(Ctx& ctx) {
  for (Port p = 0; p < env_.delta; ++p) {
    const Character* in = ctx.input(p);
    if (!in || !in->has_rloop()) continue;
    const RcaToken tok = in->rloop();

    // RCA initiator absorptions.
    if (st_.rca_phase == RcaPhase::kWaitToken &&
        tok.kind != RcaToken::Kind::kUnmark) {
      DTOP_CHECK(p == st_.loop.pred1, "token returned off-loop");
      DTOP_CHECK(tok == st_.rca_token, "loop token corrupted in flight");
      rca_on_token_return(ctx);
      continue;
    }
    if (st_.rca_phase == RcaPhase::kWaitUnmark &&
        tok.kind == RcaToken::Kind::kUnmark) {
      DTOP_CHECK(p == st_.loop.pred1, "UNMARK returned off-loop");
      rca_on_unmark_return(ctx);
      continue;
    }

    // Root: observe and relay pred#1 -> succ#2.
    if (env_.is_root) {
      DTOP_CHECK(st_.loop.has1 && st_.loop.has2 && p == st_.loop.pred1,
                 "loop token at unmarked root");
      switch (tok.kind) {
        case RcaToken::Kind::kForward:
          emit_event(ctx, TranscriptEvent::Kind::kForward, tok.out, tok.in);
          break;
        case RcaToken::Kind::kBack:
          emit_event(ctx, TranscriptEvent::Kind::kBack);
          break;
        case RcaToken::Kind::kUnmark:
          break;
      }
      const bool unmark = tok.kind == RcaToken::Kind::kUnmark;
      DTOP_CHECK(!st_.rtok.present, "rloop slot busy at root");
      st_.rtok.present = true;
      st_.rtok.tok = tok;
      st_.rtok.port = st_.loop.succ2;
      st_.rtok.delay = static_cast<std::uint8_t>(
          unmark ? cfg_.protocol.token_delay : cfg_.protocol.loop_delay);
      if (unmark) {
        st_.loop.clear_slot1();
        st_.loop.clear_slot2();
        st_.root_phase = RootPhase::kOpen;  // "the root reopens itself"
      }
      continue;
    }

    // Generic marked processor: slot selection with alternation.
    DTOP_CHECK(st_.loop.any(), "loop token at unmarked processor");
    int slot;
    if (st_.loop.has1 && st_.loop.has2) {
      slot = st_.loop.expect2 ? 2 : 1;
      st_.loop.expect2 = !st_.loop.expect2;
    } else {
      slot = st_.loop.has1 ? 1 : 2;
    }
    const Port pred = slot == 1 ? st_.loop.pred1 : st_.loop.pred2;
    const Port succ = slot == 1 ? st_.loop.succ1 : st_.loop.succ2;
    DTOP_CHECK(p == pred, "loop token through non-predecessor port");
    const bool unmark = tok.kind == RcaToken::Kind::kUnmark;
    DTOP_CHECK(!st_.rtok.present, "rloop slot busy");
    st_.rtok.present = true;
    st_.rtok.tok = tok;
    st_.rtok.port = succ;
    st_.rtok.delay = static_cast<std::uint8_t>(
        unmark ? cfg_.protocol.token_delay : cfg_.protocol.loop_delay);
    if (unmark) {
      if (slot == 1)
        st_.loop.clear_slot1();
      else
        st_.loop.clear_slot2();
    }
  }
}

void GtdMachine::handle_bloop(Ctx& ctx) {
  for (Port p = 0; p < env_.delta; ++p) {
    const Character* in = ctx.input(p);
    if (!in || !in->has_bloop()) continue;
    const BcaToken tok = in->bloop();

    // Target: consume the DATA payload, relay as ACK. (Checked before the
    // creator cases so the self-loop works: B-as-target sees DATA first.)
    if (st_.bca_marks.has && st_.bca_marks.target &&
        tok.kind == BcaToken::Kind::kData) {
      DTOP_CHECK(p == st_.bca_marks.pred, "DATA through non-predecessor");
      st_.bca_marks.delivery_pending = true;
      st_.bca_marks.delivery_payload = tok.payload;
      st_.bca_marks.delivery_out = st_.bca_marks.succ;
      DTOP_CHECK(!st_.btok.present, "bloop slot busy at target");
      st_.btok.present = true;
      st_.btok.tok = BcaToken{BcaToken::Kind::kAck, tok.payload};
      st_.btok.port = st_.bca_marks.succ;
      st_.btok.delay = static_cast<std::uint8_t>(cfg_.protocol.loop_delay);
      continue;
    }

    // Creator absorptions.
    if (st_.bca_phase == BcaPhase::kWaitAck &&
        tok.kind == BcaToken::Kind::kAck) {
      DTOP_CHECK(p == st_.bca_req_in, "ACK returned off-loop");
      bca_on_ack(ctx);
      continue;
    }
    if (st_.bca_phase == BcaPhase::kWaitBUnmark &&
        tok.kind == BcaToken::Kind::kBUnmark) {
      DTOP_CHECK(p == st_.bca_req_in, "BUNMARK returned off-loop");
      bca_on_bunmark_return(ctx);
      continue;
    }

    // Generic loop processor.
    DTOP_CHECK(st_.bca_marks.has, "BCA token at unmarked processor");
    DTOP_CHECK(p == st_.bca_marks.pred, "BCA token through non-predecessor");
    const bool unmark = tok.kind == BcaToken::Kind::kBUnmark;
    DTOP_CHECK(!st_.btok.present, "bloop slot busy");
    st_.btok.present = true;
    st_.btok.tok = tok;
    st_.btok.port = st_.bca_marks.succ;
    st_.btok.delay = static_cast<std::uint8_t>(
        unmark ? cfg_.protocol.token_delay : cfg_.protocol.loop_delay);
    if (unmark) {
      const bool was_target = st_.bca_marks.target;
      const bool pending = st_.bca_marks.delivery_pending;
      const std::uint8_t payload = st_.bca_marks.delivery_payload;
      const Port out_q = st_.bca_marks.delivery_out;
      st_.bca_marks.clear();
      // The target acts on the delivered message only now (DESIGN.md 3d):
      // after this, the only BCA state left is the BUNMARK's final hop.
      if (was_target && pending) dfs_on_delivery(ctx, payload, out_q);
    }
  }
}

}  // namespace dtop
