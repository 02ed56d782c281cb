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

// --- record encoder --------------------------------------------------------
//
// Records are written through a pointer into a tail the caller sized to the
// largest possible record, then the string is cut back to what was written:
// one resize pair per record instead of a capacity check per byte.

char* put_byte(char* p, std::uint8_t b) {
  *p = static_cast<char>(b);
  return p + 1;
}

char* put_varint_at(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(0x80 | (v & 0x7F));
    v >>= 7;
  }
  return put_byte(p, static_cast<std::uint8_t>(v));
}

// Bitmap varint (11 bits: 2 bytes), six snake characters (3 bytes each),
// rloop (3), bloop (2), dfs (2).
constexpr std::size_t kMaxCharacterBytes = 2 + 2 * kNumSnakeKinds * 3 + 7;
// Kind, tick delta (a 64-bit varint: at most 10 bytes), a (a 32-bit varint:
// 5), b, and a character.
constexpr std::size_t kMaxRecordBytes = 48;
static_assert(1 + 10 + 5 + 1 + kMaxCharacterBytes <= kMaxRecordBytes);

char* put_snake_char(char* p, const SnakeChar& c) {
  p = put_byte(p, static_cast<std::uint8_t>(c.part));
  p = put_byte(p, c.out);
  return put_byte(p, c.in);
}

char* put_character(char* p, const Character& c) {
  // The lane bitmap is the character's presence mask itself.
  p = put_varint_at(p, c.lanes);
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.has_grow(i)) p = put_snake_char(p, c.grow(i));
  for (int i = 0; i < kNumSnakeKinds; ++i)
    if (c.has_die(i)) p = put_snake_char(p, c.die(i));
  if (c.has_rloop()) {
    p = put_byte(p, static_cast<std::uint8_t>(c.rloop().kind));
    p = put_byte(p, c.rloop().out);
    p = put_byte(p, c.rloop().in);
  }
  if (c.has_bloop()) {
    p = put_byte(p, static_cast<std::uint8_t>(c.bloop().kind));
    p = put_byte(p, c.bloop().payload);
  }
  if (c.has_dfs()) {
    p = put_byte(p, c.dfs().last_out);
    p = put_byte(p, c.dfs().last_in);
  }
  return p;
}

// Runs `put(p) -> end` on a `max_bytes` tail of `out`, then trims the tail.
template <class Put>
void append_through(std::string& out, std::size_t max_bytes, Put put) {
  const std::size_t at = out.size();
  out.resize(at + max_bytes);
  const char* end = put(out.data() + at);
  out.resize(static_cast<std::size_t>(end - out.data()));
}

// --- record decoder --------------------------------------------------------
//
// The one reader of event records: a raw-pointer cursor over a block's
// bytes. Every read is bounds-checked and throws the same TraceError texts
// the header reader uses.

class RecordCursor {
 public:
  explicit RecordCursor(std::string_view bytes)
      : p_(reinterpret_cast<const unsigned char*>(bytes.data())),
        end_(p_ + bytes.size()) {}

  bool done() const { return p_ == end_; }

  std::uint8_t u8() {
    if (p_ == end_) throw TraceError("trace truncated: unexpected end of data");
    return *p_++;
  }

  std::uint64_t varint() {
    if (p_ != end_ && *p_ < 0x80) return *p_++;  // one byte: most fields
    ByteReader in(std::string_view(reinterpret_cast<const char*>(p_),
                                   static_cast<std::size_t>(end_ - p_)));
    const std::uint64_t v = need_varint(in);
    p_ += in.pos();
    return v;
  }

  std::uint32_t field() {
    const std::uint64_t v = varint();
    if (v > std::numeric_limits<std::uint32_t>::max()) {
      throw TraceError("trace corrupt: field out of range");
    }
    return static_cast<std::uint32_t>(v);
  }

  SnakeChar snake_char() {
    SnakeChar c;
    const std::uint8_t part = u8();
    if (part > static_cast<std::uint8_t>(SnakePart::kTail)) {
      throw TraceError("trace corrupt: bad snake part " + std::to_string(part));
    }
    c.part = static_cast<SnakePart>(part);
    c.out = u8();
    c.in = u8();
    return c;
  }

  // Decodes into a blank character.
  void character(Character& c) {
    const std::uint64_t bits = varint();
    if (bits >> kNumLaneBits) {
      throw TraceError("trace corrupt: unknown character lane bits");
    }
    for (int i = 0; i < kNumSnakeKinds; ++i)
      if (bits & (kLaneGrow0 << i)) c.set_grow(i, snake_char());
    for (int i = 0; i < kNumSnakeKinds; ++i)
      if (bits & (kLaneDie0 << i)) c.set_die(i, snake_char());
    c.set_kill((bits & kLaneKill) != 0);
    c.set_bkill((bits & kLaneBkill) != 0);
    if (bits & kLaneRloop) {
      RcaToken t;
      const std::uint8_t kind = u8();
      if (kind > static_cast<std::uint8_t>(RcaToken::Kind::kUnmark)) {
        throw TraceError("trace corrupt: bad rloop kind");
      }
      t.kind = static_cast<RcaToken::Kind>(kind);
      t.out = u8();
      t.in = u8();
      c.set_rloop(t);
    }
    if (bits & kLaneBloop) {
      BcaToken t;
      const std::uint8_t kind = u8();
      if (kind > static_cast<std::uint8_t>(BcaToken::Kind::kBUnmark)) {
        throw TraceError("trace corrupt: bad bloop kind");
      }
      t.kind = static_cast<BcaToken::Kind>(kind);
      t.payload = u8();
      c.set_bloop(t);
    }
    if (bits & kLaneDfs) {
      DfsToken t;
      t.last_out = u8();
      t.last_in = u8();
      c.set_dfs(t);
    }
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace

void write_character(std::string& out, const Character& c) {
  append_through(out, kMaxCharacterBytes,
                 [&c](char* p) { return put_character(p, c); });
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
  const auto delta = static_cast<std::uint64_t>(ev.tick - last_tick);
  last_tick = ev.tick;
  append_through(out, kMaxRecordBytes, [&ev, delta](char* p) {
    p = put_byte(p, static_cast<std::uint8_t>(ev.kind));
    p = put_varint_at(p, delta);
    p = put_varint_at(p, ev.a);
    switch (ev.kind) {
      case TraceEventKind::kSchedule:
      case TraceEventKind::kNodeStep:
      case TraceEventKind::kRcaComplete:
      case TraceEventKind::kBcaStart:
      case TraceEventKind::kBcaComplete:
      case TraceEventKind::kRunEnd:
        break;
      case TraceEventKind::kWireSend:
        p = put_character(p, ev.payload);
        break;
      case TraceEventKind::kInject:
        p = put_byte(p, ev.b);
        p = put_character(p, ev.payload);
        break;
      case TraceEventKind::kRootEvent:
        p = put_byte(p, ev.b);
        p = put_byte(p, ev.c);
        break;
      case TraceEventKind::kRcaStart:
      case TraceEventKind::kRcaPhase:
      case TraceEventKind::kGrowErased:
        p = put_byte(p, ev.b);
        break;
    }
    return p;
  });
}

void read_event_records(std::string_view records,
                        std::vector<TraceEvent>& out) {
  RecordCursor in(records);
  Tick last_tick = 0;
  while (!in.done()) {
    const std::uint8_t kind = in.u8();
    if (kind >= kNumTraceEventKinds) {
      throw TraceError("trace corrupt: unknown event kind " +
                       std::to_string(kind));
    }
    const std::uint64_t delta = in.varint();
    if (delta > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max() -
                                           last_tick)) {
      throw TraceError("trace corrupt: tick overflow");
    }
    last_tick += static_cast<Tick>(delta);
    TraceEvent& ev = out.emplace_back();
    ev.kind = static_cast<TraceEventKind>(kind);
    ev.tick = last_tick;
    ev.a = in.field();
    switch (ev.kind) {
      case TraceEventKind::kSchedule:
      case TraceEventKind::kNodeStep:
      case TraceEventKind::kRcaComplete:
      case TraceEventKind::kBcaStart:
      case TraceEventKind::kBcaComplete:
      case TraceEventKind::kRunEnd:
        break;
      case TraceEventKind::kWireSend:
        in.character(ev.payload);
        break;
      case TraceEventKind::kInject:
        ev.b = in.u8();
        in.character(ev.payload);
        break;
      case TraceEventKind::kRootEvent:
        ev.b = in.u8();
        ev.c = in.u8();
        break;
      case TraceEventKind::kRcaStart:
      case TraceEventKind::kRcaPhase:
      case TraceEventKind::kGrowErased:
        ev.b = in.u8();
        break;
    }
  }
}

RecordedTrace read_trace(std::istream& is) {
  return TraceFile(is).read_all();
}

}  // namespace dtop::trace
