// The DTR2 trace container: codec round-trips, multi-block round-trips,
// seek-index laziness, corruption sweeps (every truncation point and every
// flipped byte either throws or yields a faithful read), range surgery, and
// corpus aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/canonical.hpp"
#include "graph/families.hpp"
#include "graph/permute.hpp"
#include "trace/container.hpp"
#include "trace/corpus.hpp"
#include "trace/surgery.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {
namespace {

Character send_payload(std::uint32_t salt) {
  Character c;
  c.set_grow(salt % kNumSnakeKinds,
             SnakeChar{SnakePart::kHead, static_cast<Port>(salt % 3),
                       kStarPort});
  if (salt % 5 == 0) c.set_kill(true);
  if (salt % 7 == 0) c.set_dfs(DfsToken{1, 0});
  return c;
}

// A deterministic synthetic stream: dense step/send traffic with repeated
// ticks (including across block boundaries) and a terminal kRunEnd.
RecordedTrace synthetic_trace(NodeId nodes, Tick ticks,
                              std::uint32_t events_per_tick) {
  RecordedTrace t;
  t.header.graph = directed_ring(nodes);
  t.header.root = 0;
  TraceEvent ev;
  for (Tick tick = 0; tick < ticks; ++tick) {
    for (std::uint32_t i = 0; i < events_per_tick; ++i) {
      ev = TraceEvent{};
      ev.tick = tick;
      if (i % 2 == 0) {
        ev.kind = TraceEventKind::kNodeStep;
        ev.a = (static_cast<std::uint32_t>(tick) * 31 + i) % nodes;
      } else {
        ev.kind = TraceEventKind::kWireSend;
        ev.a = (static_cast<std::uint32_t>(tick) * 17 + i) % nodes;
        ev.payload = send_payload(static_cast<std::uint32_t>(tick) + i);
      }
      t.events.push_back(ev);
    }
  }
  ev = TraceEvent{};
  ev.kind = TraceEventKind::kRunEnd;
  ev.tick = ticks;
  ev.a = static_cast<std::uint32_t>(RunStatus::kTerminated);
  t.events.push_back(ev);
  return t;
}

std::string dtr2_bytes(const RecordedTrace& t, Dtr2Options opts = {}) {
  std::stringstream ss;
  write_trace_dtr2(ss, t, opts);
  return ss.str();
}

// --- codecs ---------------------------------------------------------------

TEST(TraceCodecs, DlzRoundTripsRepresentativeBuffers) {
  const std::string inputs[] = {
      "",
      "a",
      std::string(100000, 'x'),
      "abcabcabcabcabcabcabcabc",
      "no repeats here at all 0123456789!@#$%^&*",
      std::string("\x00\x01\x02\x00\x01\x02\x00\x01\x02", 9),
  };
  for (const std::string& raw : inputs) {
    const std::string stored = codec_compress(TraceCodec::kDlz, raw);
    EXPECT_EQ(codec_decompress(TraceCodec::kDlz, stored, raw.size()), raw);
  }
  // Long-range self-overlap (match distance < length): the decoder must
  // replicate byte-at-a-time.
  std::string overlap = "ab";
  for (int i = 0; i < 12; ++i) overlap += overlap;
  const std::string stored = codec_compress(TraceCodec::kDlz, overlap);
  EXPECT_LT(stored.size(), overlap.size());
  EXPECT_EQ(codec_decompress(TraceCodec::kDlz, stored, overlap.size()),
            overlap);
}

TEST(TraceCodecs, DlzRejectsMalformedStreams) {
  // A match token pointing before the start of the window.
  std::string bad;
  bad.push_back(static_cast<char>(0x84));  // match, len 8
  bad.push_back(static_cast<char>(0xFF));  // distance 0xFFFF: out of window
  bad.push_back(static_cast<char>(0xFF));
  EXPECT_THROW(codec_decompress(TraceCodec::kDlz, bad, 8), TraceError);
  // Output shorter than promised.
  EXPECT_THROW(codec_decompress(TraceCodec::kDlz, "", 5), TraceError);
  // Output longer than promised.
  const std::string stored = codec_compress(TraceCodec::kDlz, "hello world");
  EXPECT_THROW(codec_decompress(TraceCodec::kDlz, stored, 3), TraceError);
}

// The decoder's bounds, token by token. Each stream must decode to exactly
// the expected bytes or throw TraceError naming the token that overran.
TEST(TraceCodecs, DlzDecoderBoundsAreExact) {
  const auto throws = [](const std::string& stored, std::size_t raw_size,
                         const char* what) {
    try {
      (void)codec_decompress(TraceCodec::kDlz, stored, raw_size);
      ADD_FAILURE() << "decoded; want \"" << what << "\"";
    } catch (const TraceError& e) {
      EXPECT_STREQ(e.what(), what);
    }
  };
  constexpr const char* kMatchOut = "trace corrupt: dlz match out of bounds";
  constexpr const char* kLiteralOut =
      "trace corrupt: dlz literal run out of bounds";
  // `n` literal bytes 'a', 'b', ... as literal tokens of at most 128.
  const auto literals = [](std::size_t n) {
    std::string tokens, bytes;
    for (std::size_t i = 0; i < n; ++i)
      bytes.push_back(static_cast<char>('a' + i % 26));
    for (std::size_t at = 0; at < n; at += 128) {
      const std::size_t run = std::min<std::size_t>(128, n - at);
      tokens.push_back(static_cast<char>(run - 1));
      tokens.append(bytes, at, run);
    }
    return std::pair{tokens, bytes};
  };
  const auto match = [](std::size_t length, std::size_t distance) {
    std::string t(1, static_cast<char>(0x80 | (length - 4)));
    t.push_back(static_cast<char>(distance & 0xFF));
    t.push_back(static_cast<char>(distance >> 8));
    return t;
  };
  // What the match produces: a forward copy that repeats the bytes it is
  // writing when distance < length.
  const auto expand = [](std::string out, std::size_t length,
                         std::size_t distance) {
    for (std::size_t i = 0; i < length; ++i)
      out.push_back(out[out.size() - distance]);
    return out;
  };
  const auto decodes_to = [&](const std::string& stored,
                              const std::string& want) {
    EXPECT_EQ(codec_decompress(TraceCodec::kDlz, stored, want.size()), want);
    // One byte short of the promised size: the final match overruns.
    throws(stored, want.size() - 1, kMatchOut);
  };

  // Every overlap case (distance 1..4 against every length 4..131), and
  // distance == length, the largest copy that still overlaps nothing.
  for (std::size_t length = 4; length <= 131; ++length) {
    for (std::size_t distance = 1; distance <= 4; ++distance) {
      const auto [tokens, bytes] = literals(distance);
      decodes_to(tokens + match(length, distance),
                 expand(bytes, length, distance));
    }
    const auto [tokens, bytes] = literals(length);
    decodes_to(tokens + match(length, length), bytes + bytes);
  }

  // A literal run that ends exactly at raw_size, and one that ends one
  // byte past it.
  const auto [five, five_bytes] = literals(5);
  EXPECT_EQ(codec_decompress(TraceCodec::kDlz, five, 5), five_bytes);
  throws(five, 4, kLiteralOut);
  // A literal run whose bytes the stream does not hold.
  throws(five.substr(0, 5), 5, kLiteralOut);

  // A match whose distance exceeds the output produced so far by one, next
  // to the same match at exactly the produced length.
  const auto [three, three_bytes] = literals(3);
  throws(three + match(4, 4), 7, kMatchOut);
  EXPECT_EQ(codec_decompress(TraceCodec::kDlz, three + match(4, 3), 7),
            expand(three_bytes, 4, 3));
  // A match cut inside its distance.
  throws(three + match(4, 3).substr(0, 2), 7,
         "trace corrupt: dlz match truncated");
}

TEST(TraceCodecs, ZstdAvailabilityIsConsistent) {
  EXPECT_TRUE(codec_available(TraceCodec::kRaw));
  EXPECT_TRUE(codec_available(TraceCodec::kDlz));
  if (codec_available(TraceCodec::kZstd)) {
    const std::string raw(50000, 'z');
    const std::string stored = codec_compress(TraceCodec::kZstd, raw);
    EXPECT_LT(stored.size(), raw.size());
    EXPECT_EQ(codec_decompress(TraceCodec::kZstd, stored, raw.size()), raw);
  } else {
    // A zstd-less build must name the problem, not call the file corrupt.
    try {
      (void)codec_decompress(TraceCodec::kZstd, "x", 1);
      FAIL() << "expected TraceError";
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("zstd"), std::string::npos);
    }
  }
}

// --- satellite: varint overflow ------------------------------------------

TEST(TraceVarintOverflow, TenBytePayloadAboveU64MaxThrows) {
  // 10 bytes whose continuation chain decodes to 2^64 + 1: a reader that
  // shifted the final byte blindly would silently truncate this to 1.
  std::string bytes;
  for (int i = 0; i < 9; ++i) bytes.push_back(static_cast<char>(0x81));
  bytes.push_back(static_cast<char>(0x02));  // bit 65
  std::uint64_t v = 0;
  EXPECT_FALSE(ByteReader(bytes).varint(v));
  // In a trace, the rejected varint is a TraceError (here: a record's tick
  // delta).
  std::vector<TraceEvent> events;
  EXPECT_THROW(
      read_event_records(
          static_cast<char>(TraceEventKind::kNodeStep) + bytes, events),
      TraceError);
  // The all-ones maximum still decodes.
  std::string max_bytes;
  for (int i = 0; i < 9; ++i) max_bytes.push_back(static_cast<char>(0xFF));
  max_bytes.push_back(static_cast<char>(0x01));
  ByteReader max_in(max_bytes);
  ASSERT_TRUE(max_in.varint(v));
  EXPECT_EQ(v, ~std::uint64_t{0});
  EXPECT_TRUE(max_in.done());
}

// --- satellite: writer stream checks -------------------------------------

TEST(TraceWriteFailure, BadStreamThrowsInsteadOfTruncating) {
  const RecordedTrace t = synthetic_trace(4, 3, 2);
  std::stringstream dead;
  dead.setstate(std::ios::badbit);
  EXPECT_THROW(write_trace_dtr2(dead, t), Error);
}

// --- container round-trips ------------------------------------------------

TEST(Dtr2Container, RoundTripsThroughSniffingReader) {
  const RecordedTrace t = synthetic_trace(8, 20, 6);
  for (const TraceCodec codec :
       {TraceCodec::kRaw, TraceCodec::kDlz, default_trace_codec()}) {
    Dtr2Options opts;
    opts.codec = codec;
    opts.block_events = 16;  // force several blocks
    std::stringstream ss(dtr2_bytes(t, opts));
    const RecordedTrace back = read_trace(ss);  // sniffs the magic
    EXPECT_EQ(back.header, t.header);
    EXPECT_EQ(back.events, t.events);
  }
}

TEST(Dtr2Container, Dtr1MagicIsRejected) {
  // The retired scan-only DTR1 stream: magic, then the header and event
  // records with no framing. Readers name the format instead of calling
  // the file corrupt.
  const RecordedTrace t = synthetic_trace(6, 10, 4);
  std::string bytes = "DTR1";
  write_header(bytes, t.header);
  Tick last = 0;
  for (const TraceEvent& ev : t.events) write_event_record(bytes, ev, last);
  for (const bool through_read_trace : {false, true}) {
    std::stringstream ss(bytes);
    try {
      if (through_read_trace) {
        (void)read_trace(ss);
      } else {
        TraceFile f(ss);
      }
      FAIL() << "expected TraceError";
    } catch (const TraceError& e) {
      EXPECT_NE(std::string(e.what()).find("DTR1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Dtr2Container, FooterStatsMatchTheStream) {
  const RecordedTrace t = synthetic_trace(8, 15, 5);
  Dtr2Options opts;
  opts.block_events = 8;
  std::stringstream ss(dtr2_bytes(t, opts));
  TraceFile f(ss);
  EXPECT_TRUE(f.indexed());
  EXPECT_GT(f.num_blocks(), 2u);
  EXPECT_EQ(f.num_events(), t.events.size());
  EXPECT_EQ(f.last_tick(), t.events.back().tick);
  std::array<std::uint64_t, kNumTraceEventKinds> want{};
  for (const TraceEvent& ev : t.events) {
    ++want[static_cast<std::size_t>(ev.kind)];
  }
  EXPECT_EQ(f.kind_counts(), want);
  EXPECT_EQ(f.blocks_decoded(), 0);  // stats come from the footer alone
}

TEST(Dtr2Container, EmptyTraceRoundTrips) {
  RecordedTrace t;
  t.header.graph = directed_ring(3);
  std::stringstream ss(dtr2_bytes(t));
  TraceFile f(ss);
  EXPECT_TRUE(f.indexed());
  EXPECT_EQ(f.num_events(), 0u);
  EXPECT_EQ(f.num_blocks(), 0u);
  EXPECT_TRUE(f.read_all().events.empty());
  EXPECT_TRUE(f.events_in_range(0, 10).empty());
  EXPECT_EQ(f.first_event_at_tick(5), 0u);
}

// --- seek index -----------------------------------------------------------

TEST(Dtr2Seek, RangeReadsMatchTheFlatSliceExhaustively) {
  const RecordedTrace t = synthetic_trace(6, 12, 3);
  Dtr2Options opts;
  opts.block_events = 7;  // misaligned with the per-tick event count
  std::stringstream ss(dtr2_bytes(t, opts));
  TraceFile f(ss);
  const std::uint64_t n = t.events.size();
  for (std::uint64_t begin = 0; begin <= n + 2; ++begin) {
    for (const std::uint64_t count :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3}, n, n + 5}) {
      const std::vector<TraceEvent> got = f.events_in_range(begin, count);
      const std::uint64_t b = std::min(begin, n);
      const std::uint64_t e = std::min(b + count, n);
      const std::vector<TraceEvent> want(
          t.events.begin() + static_cast<std::ptrdiff_t>(b),
          t.events.begin() + static_cast<std::ptrdiff_t>(e));
      ASSERT_EQ(got, want) << "begin=" << begin << " count=" << count;
    }
  }
}

TEST(Dtr2Seek, FirstEventAtTickMatchesLinearScanExhaustively) {
  // block_events=2 with 3 events per tick forces adjacent blocks sharing
  // first_tick — the case where "last block with first_tick < t" differs
  // from "last block with first_tick <= t".
  const RecordedTrace t = synthetic_trace(5, 9, 3);
  Dtr2Options opts;
  opts.block_events = 2;
  std::stringstream ss(dtr2_bytes(t, opts));
  TraceFile f(ss);
  for (Tick tick = 0; tick <= t.events.back().tick + 2; ++tick) {
    std::uint64_t want = t.events.size();
    for (std::size_t i = 0; i < t.events.size(); ++i) {
      if (t.events[i].tick >= tick) {
        want = i;
        break;
      }
    }
    EXPECT_EQ(f.first_event_at_tick(tick), want) << "tick=" << tick;
  }
}

TEST(Dtr2Seek, WindowedReadsDecodeOnlyTouchedBlocks) {
  const RecordedTrace t = synthetic_trace(8, 40, 4);
  Dtr2Options opts;
  opts.block_events = 8;
  std::stringstream ss(dtr2_bytes(t, opts));
  TraceFile f(ss);
  ASSERT_GT(f.num_blocks(), 10u);
  // A one-event read near the end touches exactly one block; blocks before
  // the indexed one stay compressed (the `inspect --start` acceptance bar).
  (void)f.events_in_range(t.events.size() - 2, 1);
  EXPECT_EQ(f.blocks_decoded(), 1);

  std::stringstream ss2(dtr2_bytes(t, opts));
  TraceFile f2(ss2);
  (void)f2.first_event_at_tick(35);
  EXPECT_LE(f2.blocks_decoded(), 1);

  // read_all after those seeks copies the cached block and decodes the rest
  // straight into its result: the same events as a fresh file, with every
  // block decompressed exactly once.
  for (TraceFile* seeked : {&f, &f2}) {
    EXPECT_EQ(seeked->read_all().events, t.events);
    EXPECT_EQ(seeked->blocks_decoded(),
              static_cast<int>(seeked->num_blocks()));
  }
}

// --- corruption sweeps ----------------------------------------------------

bool is_prefix(const std::vector<TraceEvent>& p,
               const std::vector<TraceEvent>& full) {
  return p.size() <= full.size() &&
         std::equal(p.begin(), p.end(), full.begin());
}

TEST(Dtr2Corruption, EveryTruncationPointThrowsOrYieldsAPrefix) {
  const RecordedTrace t = synthetic_trace(6, 10, 3);
  Dtr2Options opts;
  opts.block_events = 5;
  const std::string bytes = dtr2_bytes(t, opts);
  std::size_t clean_reads = 0;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream ss(bytes.substr(0, cut));
    try {
      TraceFile f(ss);
      const RecordedTrace back = f.read_all();
      ASSERT_EQ(back.header, t.header) << "cut=" << cut;
      ASSERT_TRUE(is_prefix(back.events, t.events)) << "cut=" << cut;
      ASSERT_FALSE(f.indexed()) << "cut=" << cut;  // the trailer is gone
      ++clean_reads;
    } catch (const TraceError&) {
      // Equally acceptable: the cut tore a frame.
    }
  }
  // Cuts at frame boundaries must read as prefixes (writer-died-mid-run
  // recovery); there are several of those in a multi-block file.
  EXPECT_GT(clean_reads, 2u);
}

TEST(Dtr2Corruption, EveryFlippedByteThrowsOrReadsFaithfully) {
  const RecordedTrace t = synthetic_trace(5, 8, 3);
  Dtr2Options opts;
  opts.block_events = 6;
  const std::string bytes = dtr2_bytes(t, opts);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x80}) {
      std::string mutated = bytes;
      mutated[at] = static_cast<char>(
          static_cast<unsigned char>(mutated[at]) ^ mask);
      std::stringstream ss(mutated);
      try {
        TraceFile f(ss);
        const RecordedTrace back = f.read_all();
        // A flip the checksums cannot see (trailer, index frame, prologue
        // codec byte) must still never alter what is read.
        ASSERT_EQ(back.header, t.header) << "at=" << at;
        ASSERT_EQ(back.events, t.events) << "at=" << at;
      } catch (const TraceError&) {
        // The flip was detected.
      }
    }
  }
}

TEST(Dtr2Corruption, DamagedTrailerFallsBackToFullScan) {
  const RecordedTrace t = synthetic_trace(6, 10, 3);
  Dtr2Options opts;
  opts.block_events = 4;
  std::string bytes = dtr2_bytes(t, opts);
  bytes[bytes.size() - 1] ^= 0x5A;  // break the trailer magic
  std::stringstream ss(bytes);
  TraceFile f(ss);
  EXPECT_FALSE(f.indexed());
  EXPECT_EQ(f.num_events(), t.events.size());  // recomputed by the scan
  const RecordedTrace back = f.read_all();
  EXPECT_EQ(back.events, t.events);

  // The same after seeks: the scan decoded every block already, and
  // read_all copies them from the cache without decompressing again.
  std::stringstream ss2(bytes);
  TraceFile f2(ss2);
  (void)f2.events_in_range(t.events.size() / 2, 3);
  (void)f2.first_event_at_tick(7);
  EXPECT_EQ(f2.read_all().events, t.events);
  EXPECT_EQ(f2.blocks_decoded(), static_cast<int>(f2.num_blocks()));
}

TEST(Dtr2Corruption, OversizedFrameClaimIsRejectedBeforeAllocating) {
  // Hand-built prologue + frame claiming a multi-gigabyte raw size.
  std::string bytes(kTrace2Magic, sizeof kTrace2Magic);
  bytes.push_back(static_cast<char>(kTrace2Version));
  bytes.push_back(static_cast<char>(TraceCodec::kRaw));
  bytes.push_back(1);                       // header frame
  put_varint(bytes, std::uint64_t{1} << 40);  // absurd raw_size
  put_varint(bytes, 4);                     // stored_size
  bytes.push_back(static_cast<char>(TraceCodec::kRaw));
  const std::uint64_t sum = fnv1a64("abcd");
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((sum >> (8 * i)) & 0xFF));
  }
  bytes += "abcd";
  std::stringstream ss(bytes);
  EXPECT_THROW(TraceFile f(ss), TraceError);
}

// --- compression wins on a flood -----------------------------------------

TEST(Dtr2Compression, DlzBeatsRawOnALargeFloodTrace) {
  // >= 10^4 processors, dense step/send traffic: the acceptance-criteria
  // workload. The dlz file must be strictly smaller than its raw-codec
  // twin, whose blocks hold the event records verbatim.
  const RecordedTrace t = synthetic_trace(10000, 12, 10000);
  Dtr2Options dlz, raw;
  dlz.codec = TraceCodec::kDlz;
  raw.codec = TraceCodec::kRaw;
  const std::string d2 = dtr2_bytes(t, dlz);
  EXPECT_LT(d2.size(), dtr2_bytes(t, raw).size());
  std::stringstream ss(d2);
  TraceFile f(ss);
  EXPECT_EQ(f.num_events(), t.events.size());
  EXPECT_EQ(f.read_all().events, t.events);
}

// --- surgery --------------------------------------------------------------

RecordedTrace trace_with_injections() {
  RecordedTrace t = synthetic_trace(6, 12, 2);
  TraceEvent inj;
  inj.kind = TraceEventKind::kInject;
  inj.payload.set_kill(true);
  for (const Tick at : {2, 5, 9}) {
    inj.tick = at;
    inj.a = static_cast<std::uint32_t>(at);  // wire id
    const auto pos = std::lower_bound(
        t.events.begin(), t.events.end(), at,
        [](const TraceEvent& ev, Tick v) { return ev.tick < v; });
    t.events.insert(pos, inj);
  }
  return t;
}

TEST(TraceSurgery, TickRangeResolvesToTheInclusiveWindow) {
  const RecordedTrace t = trace_with_injections();
  const EventRange r = resolve_tick_range(t.events, 3, 7);
  ASSERT_LT(r.begin, r.end);
  ASSERT_GT(r.begin, 0u);
  EXPECT_LT(t.events[r.begin - 1].tick, 3);
  EXPECT_LE(t.events[r.end - 1].tick, 7);
  for (std::uint64_t i = r.begin; i < r.end; ++i) {
    EXPECT_GE(t.events[i].tick, 3);
    EXPECT_LE(t.events[i].tick, 7);
  }
  // Empty and everything windows.
  const EventRange none = resolve_tick_range(t.events, 100, 200);
  EXPECT_EQ(none.begin, none.end);
  const EventRange all = resolve_tick_range(t.events, 0, 1000);
  EXPECT_EQ(all.begin, 0u);
  EXPECT_EQ(all.end, t.events.size());
}

TEST(TraceSurgery, ExtractKeepsHeaderAndWindow) {
  const RecordedTrace t = trace_with_injections();
  const EventRange r{4, 9};
  const RecordedTrace cut = extract_range(t, r);
  EXPECT_EQ(cut.header, t.header);
  ASSERT_EQ(cut.events.size(), 5u);
  EXPECT_TRUE(std::equal(cut.events.begin(), cut.events.end(),
                         t.events.begin() + 4));
  // An extract round-trips through both containers.
  std::stringstream ss(dtr2_bytes(cut));
  EXPECT_EQ(read_trace(ss).events, cut.events);
}

TEST(TraceSurgery, InjectionSelectionPartitionsTheWindow) {
  const RecordedTrace t = trace_with_injections();
  const EventRange r = resolve_tick_range(t.events, 3, 7);
  const std::vector<TraceInjection> in = injections_in_range(t, r);
  const std::vector<TraceInjection> out = injections_outside_range(t, r);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].at, 5);
  EXPECT_TRUE(in[0].rogue.kill());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].at, 2);
  EXPECT_EQ(out[1].at, 9);
  // in + out cover every kInject exactly once.
  const std::vector<TraceInjection> all =
      injections_in_range(t, EventRange{});
  EXPECT_EQ(in.size() + out.size(), all.size());
}

TEST(TraceSurgery, MergeIsStableAndTickSorted) {
  std::vector<TraceInjection> a(2), b(2);
  a[0].at = 1;
  a[0].wire = 10;
  a[1].at = 5;
  a[1].wire = 11;
  b[0].at = 1;
  b[0].wire = 20;
  b[1].at = 3;
  b[1].wire = 21;
  const std::vector<TraceInjection> m = merge_injections(a, b);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m[0].wire, 10u);  // tie at tick 1: `a` side first
  EXPECT_EQ(m[1].wire, 20u);
  EXPECT_EQ(m[2].wire, 21u);
  EXPECT_EQ(m[3].wire, 11u);
}

// --- corpus ---------------------------------------------------------------

TEST(TraceCorpus, DedupesRelabelledInstancesAndAggregates) {
  CorpusSummary s;
  RecordedTrace a = synthetic_trace(8, 10, 2);
  corpus_add(s, "a.dtrace", a);

  // A relabelled copy of the same network: same canonical group.
  RecordedTrace b = a;
  b.header.graph = permute_nodes_random(a.header.graph, 42);
  corpus_add(s, "b.dtrace", b);

  // A violation trace of the same instance (no terminal kRunEnd).
  RecordedTrace c = a;
  c.events.pop_back();
  corpus_add(s, "c.dtrace", c);

  // A genuinely different instance.
  RecordedTrace d = synthetic_trace(12, 6, 2);
  corpus_add(s, "d.dtrace", d);

  corpus_finalize(s);
  ASSERT_EQ(s.groups.size(), 2u);
  const CorpusGroup& big = s.groups[0];  // most runs first
  EXPECT_EQ(big.runs, 3u);
  EXPECT_EQ(big.violation_runs, 1u);
  EXPECT_EQ(big.nodes, 8u);
  EXPECT_EQ(big.canon_hash, canonical_hash(a.header.graph, a.header.root));
  EXPECT_EQ(big.total_events,
            a.events.size() + b.events.size() + c.events.size());
  EXPECT_EQ(big.run_ticks.count(), 2u);  // violation runs have no end tick
  EXPECT_EQ(big.files,
            (std::vector<std::string>{"a.dtrace", "b.dtrace", "c.dtrace"}));
  EXPECT_EQ(s.groups[1].runs, 1u);
  EXPECT_EQ(s.groups[1].nodes, 12u);
}

}  // namespace
}  // namespace dtop::trace
