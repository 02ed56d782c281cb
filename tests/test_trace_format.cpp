// The dtop-trace record encodings: the varint cursor they read with, the
// character encoding (through the one record decoder), header/graph
// round-trips (tombstones included), the event-record codec through a DTR2
// file, the decoder's error for each kind of corrupt record, the recorder's
// begin()..finish() window, and event-level diff.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "graph/families.hpp"
#include "trace/container.hpp"
#include "trace/recorder.hpp"
#include "trace/trace_diff.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {
namespace {

// Every record decode in this file goes through read_event_records, the one
// record decoder.
std::vector<TraceEvent> decode_records(std::string_view records) {
  std::vector<TraceEvent> out;
  read_event_records(records, out);
  return out;
}

// One kWireSend record carrying `c`, on wire 0 at tick 0: kind, tick delta
// and wire are one byte each, so the character starts at byte 3.
constexpr std::size_t kSendCharacterAt = 3;
std::string send_record(const Character& c) {
  TraceEvent ev;
  ev.kind = TraceEventKind::kWireSend;
  ev.payload = c;
  std::string out;
  Tick last = 0;
  write_event_record(out, ev, last);
  return out;
}

TEST(TraceVarint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  300,
                                  16383,
                                  16384,
                                  0xFFFFFFFFull,
                                  0x100000000ull,
                                  0x7FFFFFFFFFFFFFFFull,
                                  0xFFFFFFFFFFFFFFFFull};
  std::string buf;
  for (const std::uint64_t v : values) put_varint(buf, v);
  ByteReader in(buf);
  for (const std::uint64_t v : values) {
    std::uint64_t back = 0;
    ASSERT_TRUE(in.varint(back));
    EXPECT_EQ(back, v);
  }
  EXPECT_TRUE(in.done());
}

TEST(TraceVarint, EncodingIsMinimalForSmallValues) {
  std::string buf;
  put_varint(buf, 0);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(TraceVarint, TruncationThrows) {
  const std::string cut(1, static_cast<char>(0x80));  // continuation, then end
  ByteReader in(cut);
  std::uint64_t v = 0;
  EXPECT_FALSE(in.varint(v));
  EXPECT_EQ(in.pos(), 0u);  // a failed read leaves the cursor in place
  // The record decoder turns the failed read into a TraceError: here the
  // record's tick delta.
  const std::string record =
      static_cast<char>(TraceEventKind::kNodeStep) + cut;
  EXPECT_THROW(decode_records(record), TraceError);
}

Character full_character() {
  Character c;
  c.set_grow(0, SnakeChar{SnakePart::kHead, 1, kStarPort});
  c.set_grow(2, SnakeChar{SnakePart::kTail, kNoPort, kNoPort});
  c.set_die(1, SnakeChar{SnakePart::kBody, 0, 3});
  c.set_kill(true);
  c.set_bkill(true);
  c.set_rloop(RcaToken{RcaToken::Kind::kForward, 2, 1});
  c.set_bloop(BcaToken{BcaToken::Kind::kData, 0x5A});
  c.set_dfs(DfsToken{1, 0});
  return c;
}

TEST(TraceCharacterCodec, RoundTripsAllLanes) {
  const std::vector<TraceEvent> back = decode_records(
      send_record(full_character()) + send_record(Character{}));  // blank
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].payload, full_character());
  EXPECT_EQ(back[1].payload, Character{});
}

TEST(TraceCharacterCodec, BlankIsOneByte) {
  std::string buf;
  write_character(buf, Character{});
  EXPECT_EQ(buf.size(), 1u);
}

// A lane's field is meaningful only while its presence bit is set: stale
// bytes left in absent lanes change neither equality nor the encoding.
TEST(TraceCharacterCodec, AbsentLaneBytesAreIgnored) {
  Character a;
  a.set_grow(1, SnakeChar{SnakePart::kBody, 2, 0});
  Character b = a;
  b.set_die(2, SnakeChar{SnakePart::kHead, 1, 3});
  b.set_rloop(RcaToken{RcaToken::Kind::kForward, 0, 1});
  b.set_dfs(DfsToken{2, 2});
  b.lanes = a.lanes;  // drop the three lanes, keep their bytes
  ASSERT_NE(std::memcmp(&a, &b, sizeof(Character)), 0);
  EXPECT_EQ(a, b);
  std::string sa, sb;
  write_character(sa, a);
  write_character(sb, b);
  EXPECT_EQ(sa, sb);
}

// Every one of the 2^11 lane masks round-trips, and the encoded bitmap is
// the mask itself.
TEST(TraceCharacterCodec, EveryLaneMaskRoundTrips) {
  for (std::uint32_t mask = 0; mask < (1u << kNumLaneBits); ++mask) {
    const auto port = [&](int salt) {
      return static_cast<Port>((mask + static_cast<std::uint32_t>(salt)) % 4);
    };
    Character c;
    for (int i = 0; i < kNumSnakeKinds; ++i) {
      if (mask & (kLaneGrow0 << i))
        c.set_grow(i, SnakeChar{SnakePart::kHead, port(i), kStarPort});
      if (mask & (kLaneDie0 << i))
        c.set_die(i, SnakeChar{SnakePart::kTail, kNoPort, port(i + 3)});
    }
    c.set_kill((mask & kLaneKill) != 0);
    c.set_bkill((mask & kLaneBkill) != 0);
    if (mask & kLaneRloop)
      c.set_rloop(RcaToken{RcaToken::Kind::kForward, port(6), port(7)});
    if (mask & kLaneBloop)
      c.set_bloop(BcaToken{BcaToken::Kind::kData,
                           static_cast<std::uint8_t>(mask)});
    if (mask & kLaneDfs) c.set_dfs(DfsToken{port(8), kStarPort});
    ASSERT_EQ(c.lanes, mask);

    const std::string record = send_record(c);
    std::uint64_t bitmap = 0;
    ASSERT_TRUE(ByteReader(std::string_view(record).substr(kSendCharacterAt))
                    .varint(bitmap));
    EXPECT_EQ(bitmap, mask);
    const std::vector<TraceEvent> back = decode_records(record);
    ASSERT_EQ(back.size(), 1u) << "mask " << mask;
    EXPECT_EQ(back[0].payload.lanes, mask);
    EXPECT_EQ(back[0].payload, c) << "mask " << mask;
  }
  std::string bad = send_record(Character{}).substr(0, kSendCharacterAt);
  put_varint(bad, 1u << kNumLaneBits);
  EXPECT_THROW(decode_records(bad), TraceError);
}

RecordedTrace sample_trace() {
  RecordedTrace t;
  t.header.root = 1;
  t.header.config.snake_delay = 1;
  t.header.graph = directed_ring(4);

  TraceEvent ev;
  ev.kind = TraceEventKind::kSchedule;
  ev.tick = 0;
  ev.a = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = 1;
  ev.a = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kWireSend;
  ev.tick = 1;
  ev.a = 2;
  ev.payload = full_character();
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kInject;
  ev.tick = 5;
  ev.a = 0;
  ev.b = 1;
  ev.payload.set_kill(true);
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRootEvent;
  ev.tick = 7;
  ev.a = static_cast<std::uint32_t>(TranscriptEvent::Kind::kForward);
  ev.b = 1;
  ev.c = 0;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRcaStart;
  ev.tick = 7;
  ev.a = 3;
  ev.b = 1;
  t.events.push_back(ev);

  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRunEnd;
  ev.tick = 9;
  ev.a = static_cast<std::uint32_t>(RunStatus::kTerminated);
  t.events.push_back(ev);
  return t;
}

// Whole traces travel as DTR2; the raw codec keeps the event records
// verbatim inside the frames.
std::string encode(const RecordedTrace& t) {
  std::stringstream ss;
  Dtr2Options opts;
  opts.codec = TraceCodec::kRaw;
  write_trace_dtr2(ss, t, opts);
  return ss.str();
}

RecordedTrace decode(const std::string& bytes) {
  std::stringstream ss(bytes);
  return read_trace(ss);
}

TEST(TraceIo, RoundTripsHeaderAndEvents) {
  const RecordedTrace t = sample_trace();
  const RecordedTrace back = decode(encode(t));
  EXPECT_EQ(back.header, t.header);
  EXPECT_EQ(back.events, t.events);
  EXPECT_TRUE(back == t);
}

TEST(TraceIo, RoundTripsTombstonedGraph) {
  // disconnect() leaves a tombstoned wire slot; recorded wire ids must
  // survive the round trip, so the slot structure has to be preserved.
  PortGraph g(4, 2);
  const WireId w0 = g.connect(0, 0, 1, 0);
  g.connect(1, 0, 2, 0);
  g.connect(2, 0, 3, 0);
  g.connect(3, 0, 0, 0);
  g.disconnect(w0);
  g.connect(0, 1, 1, 1);  // lives in a *new* slot after the tombstone

  RecordedTrace t;
  t.header.graph = g;
  const RecordedTrace back = decode(encode(t));
  EXPECT_EQ(back.header.graph, g);
  EXPECT_EQ(back.header.graph.wire_slots(), g.wire_slots());
  EXPECT_EQ(back.header.graph.num_wires(), g.num_wires());
}

TEST(TraceIo, BadMagicThrows) {
  std::stringstream ss("not a trace file");
  EXPECT_THROW(read_trace(ss), TraceError);
}

TEST(TraceIo, RejectsAbsurdNodeCountBeforeAllocating) {
  // A ~10-byte crafted header must not be able to demand a multi-gigabyte
  // graph allocation: the node count is bounded before PortGraph is built.
  std::string bytes;
  bytes.push_back(static_cast<char>(kTraceVersion));
  put_varint(bytes, 0);              // root
  bytes.push_back(8);                // delta
  put_varint(bytes, 1ull << 30);     // nodes: absurd
  put_varint(bytes, 0);              // slots
  ByteReader in(bytes);
  EXPECT_THROW(read_header(in), TraceError);
}

TEST(TraceIo, RejectsAbsurdSlotCount) {
  std::string bytes;
  bytes.push_back(static_cast<char>(kTraceVersion));
  put_varint(bytes, 0);              // root
  bytes.push_back(2);                // delta
  put_varint(bytes, 4);              // nodes
  put_varint(bytes, 1ull << 40);     // slots: absurd
  ByteReader in(bytes);
  EXPECT_THROW(read_header(in), TraceError);
}

TEST(TraceIo, TruncatedEventThrows) {
  std::string records;
  Tick last = 0;
  for (const TraceEvent& ev : sample_trace().events) {
    write_event_record(records, ev, last);
  }
  EXPECT_EQ(decode_records(records), sample_trace().events);
  // Chop inside the final event (kRunEnd is kind + tick delta + status =
  // 3 bytes here); a mid-record end must be loud, not a silent short read.
  EXPECT_THROW(
      decode_records(std::string_view(records).substr(0, records.size() - 1)),
      TraceError);
}

// The decoder's TraceError text for each kind of corrupt record, pinned.
TEST(TraceIo, CorruptRecordErrorsArePinned) {
  const auto record = [](TraceEventKind kind, std::uint64_t tick_delta,
                         std::uint64_t a) {
    std::string r(1, static_cast<char>(kind));
    put_varint(r, tick_delta);
    put_varint(r, a);
    return r;
  };
  const auto send_with = [&](std::uint16_t lanes, std::string lane_bytes) {
    std::string r = record(TraceEventKind::kWireSend, 0, 0);
    put_varint(r, lanes);
    return r + lane_bytes;
  };
  std::string root = record(TraceEventKind::kRootEvent, 0, 0);
  root.push_back(1);  // out port; the in port is missing

  struct Case {
    const char* name;
    std::string bytes;
    const char* what;
  };
  const Case cases[] = {
      {"unknown kind", std::string(1, static_cast<char>(kNumTraceEventKinds)),
       "trace corrupt: unknown event kind 12"},
      {"tick overflow",
       record(TraceEventKind::kNodeStep,
              static_cast<std::uint64_t>(std::numeric_limits<Tick>::max()),
              0) +
           record(TraceEventKind::kNodeStep, 1, 0),
       "trace corrupt: tick overflow"},
      {"a > u32", record(TraceEventKind::kNodeStep, 0, 1ull << 32),
       "trace corrupt: field out of range"},
      {"unknown lane bits", send_with(1u << kNumLaneBits, ""),
       "trace corrupt: unknown character lane bits"},
      {"bad snake part", send_with(kLaneDie0, std::string("\x03\x00\x00", 3)),
       "trace corrupt: bad snake part 3"},
      {"bad rloop kind", send_with(kLaneRloop, std::string("\x03\x00\x00", 3)),
       "trace corrupt: bad rloop kind"},
      {"bad bloop kind", send_with(kLaneBloop, std::string("\x03\x00", 2)),
       "trace corrupt: bad bloop kind"},
      {"truncated byte field", root, "trace truncated: unexpected end of data"},
      {"truncated varint field",
       std::string(1, static_cast<char>(TraceEventKind::kNodeStep)) + '\x80',
       "trace corrupt: truncated or over-long varint"},
      {"truncated character", send_with(kLaneDfs, std::string(1, '\x01')),
       "trace truncated: unexpected end of data"},
  };
  for (const Case& c : cases) {
    try {
      (void)decode_records(c.bytes);
      ADD_FAILURE() << c.name << ": decoded without an error";
    } catch (const TraceError& e) {
      EXPECT_STREQ(e.what(), c.what) << c.name;
    }
  }
}

// Every recorder hook appends through one window check, so each throws
// Error before begin() and after finish(), and appends nothing.
TEST(TraceIo, RecorderHooksThrowOutsideTheWindow) {
  const auto every_hook = [](TraceRecorder& r) {
    EXPECT_THROW(r.on_schedule(0, 0), Error);
    EXPECT_THROW(r.on_step(0, 0), Error);
    EXPECT_THROW(r.on_send(0, 0, Character{}), Error);
    EXPECT_THROW(r.on_inject(0, 0, Character{}, false), Error);
    EXPECT_THROW(r.on_transcript(TranscriptEvent{}), Error);
    EXPECT_THROW(r.on_rca_start(0, 0, true), Error);
    EXPECT_THROW(r.on_rca_phase(0, 0, RcaPhase{}), Error);
    EXPECT_THROW(r.on_rca_complete(0, 0), Error);
    EXPECT_THROW(r.on_bca_start(0, 0), Error);
    EXPECT_THROW(r.on_bca_complete(0, 0), Error);
    EXPECT_THROW(r.on_grow_erased(0, 0, false), Error);
    EXPECT_THROW(r.finish(0, RunStatus::kTerminated), Error);
  };
  TraceRecorder r;
  every_hook(r);
  EXPECT_TRUE(r.events().empty());
  r.begin(directed_ring(3), 0, ProtocolConfig{});
  r.on_step(0, 0);
  r.finish(1, RunStatus::kTerminated);
  every_hook(r);
  EXPECT_EQ(r.events().size(), 2u);
}

TEST(TraceIo, EventStreamMayEndWithoutRunEnd) {
  // A violation trace just stops; any record boundary is a clean end.
  RecordedTrace t = sample_trace();
  t.events.pop_back();  // drop kRunEnd
  const RecordedTrace back = decode(encode(t));
  EXPECT_EQ(back.events.size(), t.events.size());
}

TEST(TraceIo, WriterRejectsTickRegression) {
  std::stringstream ss;
  Dtr2Writer w(ss, TraceHeader{});
  TraceEvent ev;
  ev.kind = TraceEventKind::kNodeStep;
  ev.tick = 5;
  w.write(ev);
  ev.tick = 4;
  EXPECT_THROW(w.write(ev), Error);
}

TEST(TraceDiffTest, IdenticalTraces) {
  const TraceDiff d = diff_traces(sample_trace(), sample_trace());
  EXPECT_TRUE(d.headers_match);
  EXPECT_TRUE(d.identical);
}

TEST(TraceDiffTest, PinpointsFirstDivergentEventAndTick) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.events[3].payload.set_kill(false);
  b.events[3].payload.set_bkill(true);
  const TraceDiff d = diff_traces(a, b);
  EXPECT_TRUE(d.headers_match);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.event_index, 3u);
  EXPECT_EQ(d.tick, 5);
  EXPECT_NE(d.detail.find("tick 5"), std::string::npos);
}

TEST(TraceDiffTest, DetectsTruncatedStream) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.events.pop_back();
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.event_index, b.events.size());
  EXPECT_NE(d.detail.find("has ended"), std::string::npos);
}

TEST(TraceDiffTest, HeaderMismatchIsFlagged) {
  const RecordedTrace a = sample_trace();
  RecordedTrace b = a;
  b.header.root = 0;
  const TraceDiff d = diff_traces(a, b);
  EXPECT_FALSE(d.headers_match);
  EXPECT_FALSE(d.identical);
}

TEST(TraceEventTest, TranscriptEventsRoundTrip) {
  TranscriptEvent tev;
  tev.kind = TranscriptEvent::Kind::kUpStep;
  tev.tick = 42;
  tev.out = 1;
  tev.in = 0;
  EXPECT_EQ(to_transcript_event(make_root_event(tev)), tev);
}

}  // namespace
}  // namespace dtop::trace
