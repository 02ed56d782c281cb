#include "trace/container.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

namespace dtop::trace {
namespace {

constexpr std::uint8_t kFrameHeader = 1;
constexpr std::uint8_t kFrameEvents = 2;
constexpr std::uint8_t kFrameIndex = 3;
constexpr std::size_t kPrologueSize = 6;   // magic + version + codec
constexpr std::size_t kTrailerSize = 12;   // u64 footer offset + "2RTD"
constexpr char kTrailerMagic[4] = {'2', 'R', 'T', 'D'};
// Ceiling on a single frame's decompressed size: frames are untrusted
// bytes, and raw_size is what the reader allocates before decompressing,
// so a 20-byte crafted frame must not be able to demand gigabytes. Far
// above anything the writer produces (blocks are a few thousand events).
constexpr std::uint64_t kMaxFrameRaw = std::uint64_t{256} << 20;

struct Frame {
  std::uint8_t kind = 0;
  std::uint64_t raw_size = 0;
  TraceCodec codec = TraceCodec::kRaw;
  std::string_view stored;  // view into the file buffer
  std::size_t end = 0;      // offset just past the frame
};

// Parses and checksums the frame at `pos`. Throws TraceError when the
// frame is torn, claims an absurd size, or fails its checksum.
// `pos` is at most buf.size(): callers pass scan positions inside the
// buffer or index offsets already checked against the footer.
Frame parse_frame(std::string_view buf, std::size_t pos) {
  ByteReader in(buf.substr(pos));
  Frame f;
  std::uint64_t stored_size = 0;
  std::uint8_t codec_byte = 0;
  if (!in.u8(f.kind) || !in.varint(f.raw_size) || !in.varint(stored_size) ||
      !in.u8(codec_byte)) {
    throw TraceError("trace truncated or corrupt: torn frame head");
  }
  if (codec_byte >= kNumTraceCodecs) {
    throw TraceError("trace corrupt: unknown codec id");
  }
  f.codec = static_cast<TraceCodec>(codec_byte);
  if (f.raw_size > kMaxFrameRaw || stored_size > kMaxFrameRaw) {
    throw TraceError("trace corrupt: frame size out of range");
  }
  std::uint64_t want = 0;
  if (!in.u64le(want) || !in.bytes(stored_size, f.stored)) {
    throw TraceError("trace truncated: torn frame");
  }
  f.end = pos + in.pos();
  if (fnv1a64(f.stored) != want) {
    throw TraceError("trace corrupt: frame checksum mismatch");
  }
  return f;
}

void check_stream(std::ostream& os) {
  if (!os.good()) {
    throw Error("trace write failed: output stream error (disk full?)");
  }
}

}  // namespace

// --- writer ----------------------------------------------------------------

Dtr2Writer::Dtr2Writer(std::ostream& os, const TraceHeader& header,
                       Dtr2Options opts)
    : os_(os), opts_(opts) {
  DTOP_REQUIRE(codec_available(opts_.codec),
               "Dtr2Writer: codec not available in this build");
  DTOP_REQUIRE(opts_.block_events > 0, "Dtr2Writer: block_events must be > 0");
  std::string prologue(kTrace2Magic, sizeof kTrace2Magic);
  prologue.push_back(static_cast<char>(kTrace2Version));
  prologue.push_back(static_cast<char>(opts_.codec));
  os_.write(prologue.data(), static_cast<std::streamsize>(prologue.size()));
  offset_ = prologue.size();
  std::string hs;
  write_header(hs, header);
  write_frame(kFrameHeader, hs);
}

std::uint64_t Dtr2Writer::write_frame(std::uint8_t kind,
                                      const std::string& raw) {
  TraceCodec stored_codec = opts_.codec;
  std::string compressed;
  const std::string* stored = &raw;
  if (stored_codec != TraceCodec::kRaw) {
    compressed = codec_compress(stored_codec, raw);
    if (compressed.size() < raw.size()) {
      stored = &compressed;
    } else {
      stored_codec = TraceCodec::kRaw;  // compression did not shrink it
    }
  }
  std::string head;
  head.push_back(static_cast<char>(kind));
  put_varint(head, raw.size());
  put_varint(head, stored->size());
  head.push_back(static_cast<char>(stored_codec));
  put_u64le(head, fnv1a64(*stored));
  const std::uint64_t at = offset_;
  os_.write(head.data(), static_cast<std::streamsize>(head.size()));
  os_.write(stored->data(), static_cast<std::streamsize>(stored->size()));
  offset_ += head.size() + stored->size();
  check_stream(os_);
  return at;
}

void Dtr2Writer::write(const TraceEvent& ev) {
  DTOP_REQUIRE(!finished_, "Dtr2Writer: write after finish");
  DTOP_REQUIRE(ev.tick >= last_tick_, "trace events must be tick-ordered");
  if (block_event_count_ == 0) {
    block_first_tick_ = ev.tick;
    block_last_tick_ = 0;  // blocks are independently decodable
  }
  write_event_record(block_, ev, block_last_tick_);
  last_tick_ = ev.tick;
  ++block_event_count_;
  ++total_events_;
  ++kind_counts_[static_cast<std::size_t>(ev.kind)];
  if (block_event_count_ >= opts_.block_events) flush_block();
}

void Dtr2Writer::flush_block() {
  if (block_event_count_ == 0) return;
  const std::uint64_t at = write_frame(kFrameEvents, block_);
  index_.push_back({at, block_event_count_, block_first_tick_});
  block_.clear();
  block_event_count_ = 0;
}

void Dtr2Writer::finish() {
  if (finished_) return;
  flush_block();
  std::string idx;
  put_varint(idx, total_events_);
  put_varint(idx, static_cast<std::uint64_t>(last_tick_));
  put_varint(idx, kNumTraceEventKinds);
  for (const std::uint64_t c : kind_counts_) put_varint(idx, c);
  put_varint(idx, index_.size());
  std::uint64_t prev_off = 0;
  Tick prev_tick = 0;
  for (const BlockEntry& b : index_) {
    put_varint(idx, b.offset - prev_off);
    put_varint(idx, b.events);
    put_varint(idx, static_cast<std::uint64_t>(b.first_tick - prev_tick));
    prev_off = b.offset;
    prev_tick = b.first_tick;
  }
  const std::uint64_t footer_at = write_frame(kFrameIndex, idx);
  std::string trailer;
  put_u64le(trailer, footer_at);
  trailer.append(kTrailerMagic, sizeof kTrailerMagic);
  os_.write(trailer.data(), static_cast<std::streamsize>(trailer.size()));
  os_.flush();
  check_stream(os_);
  finished_ = true;
}

void write_trace_dtr2(std::ostream& os, const RecordedTrace& trace,
                      Dtr2Options opts) {
  Dtr2Writer w(os, trace.header, opts);
  for (const TraceEvent& ev : trace.events) w.write(ev);
  w.finish();
}

// --- reader ----------------------------------------------------------------

TraceFile::TraceFile(std::istream& is) {
  // The whole stream, straight into buf_: in_avail() sizes the first read
  // when the stream knows its length (string streams, regular files), and
  // the buffer doubles for pipes that do not.
  std::streambuf& sb = *is.rdbuf();
  buf_.resize(
      static_cast<std::size_t>(std::max<std::streamsize>(sb.in_avail(), 0)) +
      4096);
  std::size_t n = 0;
  for (;;) {
    n += static_cast<std::size_t>(
        sb.sgetn(buf_.data() + n,
                 static_cast<std::streamsize>(buf_.size() - n)));
    if (n < buf_.size()) break;
    buf_.resize(2 * buf_.size());
  }
  buf_.resize(n);
  if (buf_.compare(0, sizeof kTrace2Magic, kTrace2Magic,
                   sizeof kTrace2Magic) != 0) {
    if (buf_.compare(0, 4, "DTR1") == 0) {
      throw TraceError(
          "unsupported trace: DTR1 files are no longer read (re-record "
          "the run to get a DTR2 file)");
    }
    throw TraceError("not a dtop trace: bad magic (want \"DTR2\")");
  }
  if (buf_.size() < kPrologueSize) {
    throw TraceError("trace truncated: torn DTR2 prologue");
  }
  std::size_t pos = sizeof kTrace2Magic;
  const auto version = static_cast<std::uint8_t>(buf_[pos++]);
  if (version != kTrace2Version) {
    throw TraceError("unsupported DTR2 container version " +
                     std::to_string(version));
  }
  const auto codec_byte = static_cast<std::uint8_t>(buf_[pos++]);
  if (codec_byte >= kNumTraceCodecs) {
    throw TraceError("trace corrupt: unknown codec id");
  }
  file_codec_ = static_cast<TraceCodec>(codec_byte);

  const Frame hf = parse_frame(buf_, pos);
  if (hf.kind != kFrameHeader) {
    throw TraceError("trace corrupt: DTR2 header frame missing");
  }
  const std::string raw = codec_decompress(hf.codec, hf.stored, hf.raw_size);
  ByteReader hs(raw);
  header_ = read_header(hs);
  if (!hs.done()) {
    throw TraceError("trace corrupt: trailing bytes in header frame");
  }
  if (!try_load_index()) scan_frames(hf.end);
}

bool TraceFile::try_load_index() {
  if (buf_.size() < kPrologueSize + kTrailerSize) return false;
  const std::size_t tpos = buf_.size() - kTrailerSize;
  if (buf_.compare(tpos + 8, sizeof kTrailerMagic, kTrailerMagic,
                   sizeof kTrailerMagic) != 0) {
    return false;
  }
  const std::uint64_t foot = load_u64le(buf_.data() + tpos);
  if (foot < kPrologueSize || foot >= tpos) return false;
  try {
    const Frame f = parse_frame(buf_, static_cast<std::size_t>(foot));
    if (f.kind != kFrameIndex || f.end != tpos) return false;
    const std::string raw = codec_decompress(f.codec, f.stored, f.raw_size);
    ByteReader in(raw);
    std::uint64_t total = 0, lt = 0, kinds = 0, nblocks = 0;
    if (!in.varint(total) || !in.varint(lt) ||
        lt > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max()) ||
        !in.varint(kinds) || kinds != kNumTraceEventKinds) {
      return false;
    }
    std::array<std::uint64_t, kNumTraceEventKinds> counts{};
    std::uint64_t counts_sum = 0;
    for (auto& c : counts) {
      if (!in.varint(c)) return false;
      counts_sum += c;
    }
    if (!in.varint(nblocks)) return false;
    if (nblocks > buf_.size()) return false;  // each block frame is >1 byte
    std::vector<Block> blocks;
    blocks.reserve(static_cast<std::size_t>(nblocks));
    std::uint64_t off = 0, first_event = 0;
    std::uint64_t ft = 0;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      std::uint64_t off_delta = 0, tick_delta = 0;
      Block b;
      if (!in.varint(off_delta) || !in.varint(b.events) ||
          !in.varint(tick_delta)) {
        return false;
      }
      if (i > 0 && off_delta == 0) return false;  // offsets must increase
      off += off_delta;
      ft += tick_delta;
      if (ft > static_cast<std::uint64_t>(std::numeric_limits<Tick>::max())) {
        return false;
      }
      b.offset = off;
      b.first_tick = static_cast<Tick>(ft);
      b.first_event = first_event;
      first_event += b.events;
      if (b.offset < kPrologueSize || b.offset >= foot) return false;
      blocks.push_back(std::move(b));
    }
    if (!in.done()) return false;
    if (first_event != total || counts_sum != total) return false;
    blocks_ = std::move(blocks);
    total_events_ = total;
    last_tick_ = static_cast<Tick>(lt);
    kind_counts_ = counts;
    indexed_ = true;
    return true;
  } catch (const TraceError&) {
    return false;  // advisory index: fall back to a sequential scan
  }
}

void TraceFile::scan_frames(std::size_t events_begin) {
  std::size_t pos = events_begin;
  while (pos < buf_.size()) {
    if (buf_.size() - pos <= kTrailerSize) {
      // At most a trailer's worth of bytes: the smallest complete frame is
      // 13 bytes (12 of framing + a non-empty payload), so this tail is the
      // trailer — possibly damaged, which is why the scan is running — or
      // the torn remnant of a writer that died mid-trailer. Either way
      // every complete frame has been read.
      break;
    }
    const Frame f = parse_frame(buf_, pos);
    if (f.kind == kFrameEvents) {
      Block b;
      b.offset = pos;
      b.first_event = total_events_;
      blocks_.push_back(std::move(b));
      const std::vector<TraceEvent>& evs = block_events(blocks_.size() - 1);
      Block& nb = blocks_.back();
      nb.events = evs.size();
      nb.first_tick = evs.empty() ? last_tick_ : evs.front().tick;
      if (!evs.empty()) {
        if (evs.front().tick < last_tick_) {
          throw TraceError("trace corrupt: blocks out of tick order");
        }
        for (const TraceEvent& ev : evs) {
          ++kind_counts_[static_cast<std::size_t>(ev.kind)];
        }
        total_events_ += evs.size();
        last_tick_ = evs.back().tick;
      }
    } else if (f.kind == kFrameIndex) {
      // Advisory; already rejected by try_load_index, skip its frame.
    } else {
      throw TraceError("trace corrupt: unexpected frame kind " +
                       std::to_string(f.kind));
    }
    pos = f.end;
  }
}

void TraceFile::decode_block(std::size_t i, std::vector<TraceEvent>& out) {
  const Block& b = blocks_[i];
  const Frame f = parse_frame(buf_, static_cast<std::size_t>(b.offset));
  if (f.kind != kFrameEvents) {
    throw TraceError("trace corrupt: index points at a non-event frame");
  }
  const std::size_t first = out.size();
  read_event_records(codec_decompress(f.codec, f.stored, f.raw_size), out);
  if (indexed_) {
    // The index is what seeks and stats trust; a block that disagrees with
    // it would silently skew both.
    if (out.size() - first != b.events ||
        (out.size() > first && out[first].tick != b.first_tick)) {
      throw TraceError("trace corrupt: block disagrees with seek index");
    }
  }
  ++blocks_decoded_;
}

const std::vector<TraceEvent>& TraceFile::block_events(std::size_t i) {
  Block& b = blocks_[i];
  if (!b.decoded) {
    b.cache.reserve(static_cast<std::size_t>(b.events));
    decode_block(i, b.cache);
    b.decoded = true;
  }
  return b.cache;
}

std::vector<TraceEvent> TraceFile::events_in_range(std::uint64_t begin,
                                                   std::uint64_t count) {
  std::vector<TraceEvent> out;
  if (begin >= total_events_ || count == 0) return out;
  const std::uint64_t end = begin + std::min(count, total_events_ - begin);
  auto it = std::upper_bound(
      blocks_.begin(), blocks_.end(), begin,
      [](std::uint64_t v, const Block& b) { return v < b.first_event; });
  std::size_t i =
      it == blocks_.begin()
          ? 0
          : static_cast<std::size_t>(it - blocks_.begin()) - 1;
  for (; i < blocks_.size() && blocks_[i].first_event < end; ++i) {
    const std::vector<TraceEvent>& evs = block_events(i);
    const std::uint64_t bf = blocks_[i].first_event;
    const std::uint64_t s = begin > bf ? begin - bf : 0;
    const std::uint64_t e =
        std::min<std::uint64_t>(evs.size(), end - bf);
    for (std::uint64_t j = s; j < e; ++j) {
      out.push_back(evs[static_cast<std::size_t>(j)]);
    }
  }
  return out;
}

std::uint64_t TraceFile::first_event_at_tick(Tick t) {
  if (total_events_ == 0) return 0;
  // The last block starting before t: its tail may reach t even when the
  // next block starts exactly at t, so it is the one to decode.
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), t,
      [](const Block& b, Tick v) { return b.first_tick < v; });
  if (it == blocks_.begin()) return 0;
  const std::size_t i = static_cast<std::size_t>(it - blocks_.begin()) - 1;
  const std::vector<TraceEvent>& evs = block_events(i);
  for (std::size_t j = 0; j < evs.size(); ++j) {
    if (evs[j].tick >= t) return blocks_[i].first_event + j;
  }
  return blocks_[i].first_event + evs.size();
}

RecordedTrace TraceFile::read_all() {
  RecordedTrace t;
  t.header = header_;
  t.events.reserve(static_cast<std::size_t>(total_events_));
  Tick prev = 0;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const std::size_t first = t.events.size();
    if (blocks_[i].decoded) {
      t.events.insert(t.events.end(), blocks_[i].cache.begin(),
                      blocks_[i].cache.end());
    } else {
      decode_block(i, t.events);
    }
    if (t.events.size() > first) {
      // Within a block the delta coding forces tick order; across blocks a
      // crafted file could rewind time.
      if (t.events[first].tick < prev) {
        throw TraceError("trace corrupt: blocks out of tick order");
      }
      prev = t.events.back().tick;
    }
  }
  return t;
}

}  // namespace dtop::trace
