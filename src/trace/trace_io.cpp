#include "trace/trace_io.hpp"

#include <limits>

#include "trace/container.hpp"

namespace dtop::trace {
namespace {

// The decoders' two reads. A short read is a truncated record (or header);
// a failed varint is truncated or longer than 64 bits.
std::uint8_t need_u8(ByteReader& in) {
  std::uint8_t v = 0;
  if (!in.u8(v)) throw TraceError("trace truncated: unexpected end of data");
  return v;
}

std::uint64_t need_varint(ByteReader& in) {
  std::uint64_t v = 0;
  if (!in.varint(v)) {
    throw TraceError("trace corrupt: truncated or over-long varint");
  }
  return v;
}

void put_u8(std::string& out, std::uint8_t b) {
  out.push_back(static_cast<char>(b));
}

void write_snake_char(std::string& out, const SnakeChar& c) {
  put_u8(out, static_cast<std::uint8_t>(c.part));
  put_u8(out, c.out);
  put_u8(out, c.in);
}

SnakeChar read_snake_char(ByteReader& in) {
  SnakeChar c;
  const std::uint8_t part = need_u8(in);
  if (part > static_cast<std::uint8_t>(SnakePart::kTail)) {
    throw TraceError("trace corrupt: bad snake part " + std::to_string(part));
  }
  c.part = static_cast<SnakePart>(part);
  c.out = need_u8(in);
  c.in = need_u8(in);
  return c;
}

}  // namespace

void write_character(std::string& out, const Character& c) {
  // The lane bitmap is the character's presence mask itself.
  put_varint(out, c.lanes);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.has_grow(i)) write_snake_char(out, c.grow(i));
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.has_die(i)) write_snake_char(out, c.die(i));
  if (c.has_rloop()) {
    put_u8(out, static_cast<std::uint8_t>(c.rloop().kind));
    put_u8(out, c.rloop().out);
    put_u8(out, c.rloop().in);
  }
  if (c.has_bloop()) {
    put_u8(out, static_cast<std::uint8_t>(c.bloop().kind));
    put_u8(out, c.bloop().payload);
  }
  if (c.has_dfs()) {
    put_u8(out, c.dfs().last_out);
    put_u8(out, c.dfs().last_in);
  }
}

Character read_character(ByteReader& in) {
  Character c;
  const std::uint64_t bits = need_varint(in);
  if (bits >> kNumLaneBits) {
    throw TraceError("trace corrupt: unknown character lane bits");
  }
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kLaneGrow0 << i)) c.set_grow(i, read_snake_char(in));
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (bits & (kLaneDie0 << i)) c.set_die(i, read_snake_char(in));
  c.set_kill((bits & kLaneKill) != 0);
  c.set_bkill((bits & kLaneBkill) != 0);
  if (bits & kLaneRloop) {
    RcaToken t;
    const std::uint8_t kind = need_u8(in);
    if (kind > static_cast<std::uint8_t>(RcaToken::Kind::kUnmark)) {
      throw TraceError("trace corrupt: bad rloop kind");
    }
    t.kind = static_cast<RcaToken::Kind>(kind);
    t.out = need_u8(in);
    t.in = need_u8(in);
    c.set_rloop(t);
  }
  if (bits & kLaneBloop) {
    BcaToken t;
    const std::uint8_t kind = need_u8(in);
    if (kind > static_cast<std::uint8_t>(BcaToken::Kind::kBUnmark)) {
      throw TraceError("trace corrupt: bad bloop kind");
    }
    t.kind = static_cast<BcaToken::Kind>(kind);
    t.payload = need_u8(in);
    c.set_bloop(t);
  }
  if (bits & kLaneDfs) {
    DfsToken t;
    t.last_out = need_u8(in);
    t.last_in = need_u8(in);
    c.set_dfs(t);
  }
  return c;
}

void write_header(std::string& out, const TraceHeader& h) {
  put_u8(out, h.version);
  put_varint(out, h.root);
  put_u8(out, h.graph.delta());
  put_varint(out, h.graph.num_nodes());
  const WireId slots = h.graph.wire_slots();
  put_varint(out, slots);
  // Tombstoned slots must round-trip so recorded wire ids stay valid.
  std::vector<std::uint8_t> is_live(slots, 0);
  for (WireId lw : h.graph.wire_ids()) is_live[lw] = 1;
  for (WireId w = 0; w < slots; ++w) {
    const bool live = is_live[w] != 0;
    put_u8(out, live ? 1 : 0);
    if (live) {
      const Wire& wr = h.graph.wire(w);
      put_varint(out, wr.from);
      put_u8(out, wr.out_port);
      put_varint(out, wr.to);
      put_u8(out, wr.in_port);
    }
  }
  put_varint(out, static_cast<std::uint64_t>(h.config.snake_delay));
  put_varint(out, static_cast<std::uint64_t>(h.config.loop_delay));
  put_varint(out, static_cast<std::uint64_t>(h.config.token_delay));
}

TraceHeader read_header(ByteReader& in) {
  TraceHeader h;
  h.version = need_u8(in);
  if (h.version != kTraceVersion) {
    throw TraceError("unsupported trace version " + std::to_string(h.version));
  }
  const std::uint64_t root = need_varint(in);
  const std::uint8_t delta = need_u8(in);
  if (delta < 1 || delta > kMaxDegree) {
    throw TraceError("trace corrupt: delta out of range");
  }
  // Hard ceiling on the node count before any allocation happens: the
  // header is untrusted bytes, and a ~20-byte crafted file must not be able
  // to demand a multi-gigabyte PortGraph. 2^22 nodes at delta 8 is ~270 MB
  // of port tables — far beyond any workload in this repo, small enough to
  // be harmless.
  constexpr std::uint64_t kMaxTraceNodes = 1u << 22;
  const std::uint64_t nodes = need_varint(in);
  if (nodes < 1 || nodes > kMaxTraceNodes) {
    throw TraceError("trace corrupt: node count out of range");
  }
  if (root >= nodes) throw TraceError("trace corrupt: root out of range");
  h.root = static_cast<NodeId>(root);
  h.graph = PortGraph(static_cast<NodeId>(nodes), delta);

  // Anti-DoS sanity bound only: tombstone churn can legitimately push the
  // slot count past the live-wire maximum of nodes * delta, but not by much
  // in any trace this repo writes (degraded_grid disconnects each wire at
  // most once).
  const std::uint64_t slots = need_varint(in);
  if (slots > 4 * nodes * static_cast<std::uint64_t>(delta) + 64) {
    throw TraceError("trace corrupt: wire slot count out of range");
  }
  // Cached free port pair for tombstone reconstruction. A connect followed
  // by a disconnect frees its own ports again, so consecutive tombstones
  // reuse the cached pair in O(1); a rescan is needed only after a live
  // wire consumes it.
  NodeId ts_from = kNoNode, ts_to = kNoNode;
  Port ts_out = 0, ts_in = 0;
  for (std::uint64_t s = 0; s < slots; ++s) {
    const std::uint8_t live = need_u8(in);
    if (live > 1) throw TraceError("trace corrupt: bad wire slot tag");
    if (live) {
      const std::uint64_t from = need_varint(in);
      const std::uint8_t out_port = need_u8(in);
      const std::uint64_t to = need_varint(in);
      const std::uint8_t in_port = need_u8(in);
      if (from >= nodes || to >= nodes || out_port >= delta ||
          in_port >= delta) {
        throw TraceError("trace corrupt: wire endpoint out of range");
      }
      const WireId id =
          h.graph.connect(static_cast<NodeId>(from), out_port,
                          static_cast<NodeId>(to), in_port);
      if (id != s) throw TraceError("trace corrupt: wire slot mismatch");
    } else {
      // Reproduce the tombstone: connect any currently free port pair and
      // disconnect it again, which burns exactly this slot id. A free pair
      // always exists here — the slot's original ports are either free in
      // the final graph or reused by a wire with a higher id, which has not
      // been connected yet.
      if (ts_from == kNoNode || h.graph.out_connected(ts_from, ts_out)) {
        ts_from = kNoNode;
        for (NodeId v = 0; v < h.graph.num_nodes() && ts_from == kNoNode;
             ++v) {
          for (Port p = 0; p < delta; ++p) {
            if (!h.graph.out_connected(v, p)) {
              ts_from = v;
              ts_out = p;
              break;
            }
          }
        }
      }
      if (ts_to == kNoNode || h.graph.in_connected(ts_to, ts_in)) {
        ts_to = kNoNode;
        for (NodeId v = 0; v < h.graph.num_nodes() && ts_to == kNoNode; ++v) {
          for (Port p = 0; p < delta; ++p) {
            if (!h.graph.in_connected(v, p)) {
              ts_to = v;
              ts_in = p;
              break;
            }
          }
        }
      }
      if (ts_from == kNoNode || ts_to == kNoNode) {
        throw TraceError("trace corrupt: tombstone slot in a saturated graph");
      }
      const WireId id = h.graph.connect(ts_from, ts_out, ts_to, ts_in);
      if (id != s) throw TraceError("trace corrupt: wire slot mismatch");
      h.graph.disconnect(id);
    }
  }

  const auto read_delay = [&in]() {
    const std::uint64_t v = need_varint(in);
    if (v > 255) throw TraceError("trace corrupt: delay out of range");
    return static_cast<int>(v);
  };
  h.config.snake_delay = read_delay();
  h.config.loop_delay = read_delay();
  h.config.token_delay = read_delay();
  return h;
}

void write_event_record(std::string& out, const TraceEvent& ev,
                        Tick& last_tick) {
  DTOP_REQUIRE(ev.tick >= last_tick, "trace events must be tick-ordered");
  put_u8(out, static_cast<std::uint8_t>(ev.kind));
  put_varint(out, static_cast<std::uint64_t>(ev.tick - last_tick));
  last_tick = ev.tick;
  switch (ev.kind) {
    case TraceEventKind::kSchedule:
    case TraceEventKind::kNodeStep:
    case TraceEventKind::kRcaComplete:
    case TraceEventKind::kBcaStart:
    case TraceEventKind::kBcaComplete:
      put_varint(out, ev.a);
      break;
    case TraceEventKind::kWireSend:
      put_varint(out, ev.a);
      write_character(out, ev.payload);
      break;
    case TraceEventKind::kInject:
      put_varint(out, ev.a);
      put_u8(out, ev.b);
      write_character(out, ev.payload);
      break;
    case TraceEventKind::kRootEvent:
      put_varint(out, ev.a);
      put_u8(out, ev.b);
      put_u8(out, ev.c);
      break;
    case TraceEventKind::kRcaStart:
    case TraceEventKind::kRcaPhase:
    case TraceEventKind::kGrowErased:
      put_varint(out, ev.a);
      put_u8(out, ev.b);
      break;
    case TraceEventKind::kRunEnd:
      put_varint(out, ev.a);
      break;
  }
}

bool read_event_record(ByteReader& in, TraceEvent& ev, Tick& last_tick) {
  std::uint8_t first = 0;
  if (!in.u8(first)) return false;  // clean end at a record boundary
  if (first >= kNumTraceEventKinds) {
    throw TraceError("trace corrupt: unknown event kind " +
                     std::to_string(first));
  }
  ev = TraceEvent{};
  ev.kind = static_cast<TraceEventKind>(first);
  const std::uint64_t delta = need_varint(in);
  if (delta > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max() -
                                         last_tick)) {
    throw TraceError("trace corrupt: tick overflow");
  }
  last_tick += static_cast<Tick>(delta);
  ev.tick = last_tick;

  const auto read_a = [&in] {
    const std::uint64_t v = need_varint(in);
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw TraceError("trace corrupt: field out of range");
    }
    return static_cast<std::uint32_t>(v);
  };
  switch (ev.kind) {
    case TraceEventKind::kSchedule:
    case TraceEventKind::kNodeStep:
    case TraceEventKind::kRcaComplete:
    case TraceEventKind::kBcaStart:
    case TraceEventKind::kBcaComplete:
    case TraceEventKind::kRunEnd:
      ev.a = read_a();
      break;
    case TraceEventKind::kWireSend:
      ev.a = read_a();
      ev.payload = read_character(in);
      break;
    case TraceEventKind::kInject:
      ev.a = read_a();
      ev.b = need_u8(in);
      ev.payload = read_character(in);
      break;
    case TraceEventKind::kRootEvent:
      ev.a = read_a();
      ev.b = need_u8(in);
      ev.c = need_u8(in);
      break;
    case TraceEventKind::kRcaStart:
    case TraceEventKind::kRcaPhase:
    case TraceEventKind::kGrowErased:
      ev.a = read_a();
      ev.b = need_u8(in);
      break;
  }
  return true;
}

RecordedTrace read_trace(std::istream& is) {
  return TraceFile(is).read_all();
}

}  // namespace dtop::trace
