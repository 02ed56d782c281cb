// The depth-first-search driver (paper Section 3).
//
// The DFS token carries (last out-port, last in-port). On every *forward*
// receipt the processor runs an RCA with the FORWARD(i,j) token; on every
// *backward* receipt (delivered by the BCA) it runs an RCA with the BACK
// token. A first visit marks the parent in-port and explores out-ports in
// ascending order; re-entries through forward edges are bounced straight
// back via the BCA ("a processor never wants more than one parent",
// footnote 4). The root pipes its own FORWARD/BACK records directly to the
// master computer (DESIGN.md 3c) and terminates once all of its out-ports
// are finished.
#include "proto/gtd_machine.hpp"

namespace dtop {

void GtdMachine::dfs_start_root(Ctx& ctx) {
  st_.dfs.started = true;
  st_.dfs.visited = true;
  emit_event(ctx, TranscriptEvent::Kind::kInit);
  dfs_explore_next(ctx);
}

void GtdMachine::handle_dfs(Ctx& ctx) {
  for (Port p = 0; p < env_.delta; ++p) {
    const Character* in = ctx.input(p);
    if (!in || !in->has_dfs()) continue;
    DfsToken tok = in->dfs();
    if (tok.last_in == kStarPort) tok.last_in = p;
    dfs_on_token(ctx, tok, p);
  }
}

void GtdMachine::dfs_on_token(Ctx& ctx, const DfsToken& tok, Port p) {
  if (env_.is_root) {
    // The DFS token re-entered the root through a forward edge. The
    // degenerate root-to-root RCA is piped directly to the master computer;
    // the token is then sent backwards via the BCA.
    DTOP_CHECK(st_.dfs.phase == DfsPhase::kWaitReturn,
               "DFS token reached the root in an unexpected phase");
    emit_event(ctx, TranscriptEvent::Kind::kSelfForward, tok.last_out, p);
    st_.dfs.resume_phase = DfsPhase::kWaitReturn;
    st_.dfs.phase = DfsPhase::kInBcaReturn;
    start_bca(ctx, p, 0);
    return;
  }
  if (!st_.dfs.visited) {
    st_.dfs.visited = true;
    st_.dfs.parent = p;
    st_.dfs.after_rca = DfsAfter::kExplore;
    st_.dfs.phase = DfsPhase::kInRcaForward;
    start_rca(ctx, RcaToken{RcaToken::Kind::kForward, tok.last_out, p});
    return;
  }
  // Already visited: FORWARD RCA, then bounce the token back through the
  // in-port it just used.
  DTOP_CHECK(st_.dfs.phase == DfsPhase::kWaitReturn ||
                 st_.dfs.phase == DfsPhase::kIdle,
             "DFS token re-entered a busy processor");
  st_.dfs.resume_phase = st_.dfs.phase;
  st_.dfs.return_port = p;
  st_.dfs.after_rca = DfsAfter::kReturn;
  st_.dfs.phase = DfsPhase::kInRcaForward;
  start_rca(ctx, RcaToken{RcaToken::Kind::kForward, tok.last_out, p});
}

void GtdMachine::dfs_on_rca_done(Ctx& ctx) {
  switch (st_.dfs.phase) {
    case DfsPhase::kInRcaForward:
      if (st_.dfs.after_rca == DfsAfter::kExplore) {
        dfs_explore_next(ctx);
      } else {
        st_.dfs.phase = DfsPhase::kInBcaReturn;
        start_bca(ctx, st_.dfs.return_port, 0);
      }
      return;
    case DfsPhase::kInRcaBack:
      DTOP_CHECK(st_.dfs.pending_back_port != kNoPort, "no port to finish");
      st_.dfs.finished = static_cast<std::uint8_t>(
          st_.dfs.finished | (1u << st_.dfs.pending_back_port));
      st_.dfs.pending_back_port = kNoPort;
      dfs_explore_next(ctx);
      return;
    default:
      unreachable("RCA completed outside a DFS step");
  }
}

void GtdMachine::dfs_on_bca_done(Ctx& ctx) {
  (void)ctx;
  DTOP_CHECK(st_.dfs.phase == DfsPhase::kInBcaReturn,
             "BCA completed outside a DFS return");
  st_.dfs.phase = st_.dfs.resume_phase;
}

void GtdMachine::dfs_on_delivery(Ctx& ctx, std::uint8_t payload, Port out_q) {
  (void)payload;
  // The DFS token came back through our out-port `out_q` (the BCA target's
  // successor is exactly the edge the token had been sent down).
  DTOP_CHECK(st_.dfs.phase == DfsPhase::kWaitReturn,
             "DFS return delivered while not waiting");
  if (env_.is_root) {
    emit_event(ctx, TranscriptEvent::Kind::kSelfBack);
    st_.dfs.finished =
        static_cast<std::uint8_t>(st_.dfs.finished | (1u << out_q));
    dfs_explore_next(ctx);
    return;
  }
  st_.dfs.pending_back_port = out_q;
  st_.dfs.phase = DfsPhase::kInRcaBack;
  start_rca(ctx, RcaToken{RcaToken::Kind::kBack, kNoPort, kNoPort});
}

void GtdMachine::dfs_explore_next(Ctx& ctx) {
  for (Port m = 0; m < env_.delta; ++m) {
    if (!(env_.out_mask & (1u << m))) continue;
    if (st_.dfs.finished & (1u << m)) continue;
    DTOP_CHECK(!st_.dfs_out.present, "dfs emission slot busy");
    st_.dfs_out.present = true;
    st_.dfs_out.tok = DfsToken{m, kStarPort};
    st_.dfs_out.port = m;
    st_.dfs_out.delay = 0;
    st_.dfs.phase = DfsPhase::kWaitReturn;
    return;
  }
  // All out-ports finished.
  if (env_.is_root) {
    st_.dfs.phase = DfsPhase::kDone;
    st_.terminated = true;
    emit_event(ctx, TranscriptEvent::Kind::kTerminated);
    return;
  }
  st_.dfs.resume_phase = DfsPhase::kIdle;
  st_.dfs.phase = DfsPhase::kInBcaReturn;
  start_bca(ctx, st_.dfs.parent, 0);
}

}  // namespace dtop
