// The DTR2 trace container, the one on-disk trace format: the header and
// event-record encodings of trace/trace_io.hpp wrapped in framed,
// checksummed, optionally compressed blocks, plus a seek index so range
// reads decode only the blocks they touch.
//
// Layout (all multi-byte integers are LEB128 varints unless noted):
//
//   magic     "DTR2" (4 bytes)
//   version   u8 (= 1)
//   codec     u8 (TraceCodec the writer preferred; informational — each
//             frame names its own stored codec)
//
//   frames, back to back:
//     kind        u8: 1 = header, 2 = event block, 3 = seek index
//     raw_size    varint, bytes after decompression
//     stored_size varint, bytes on disk
//     codec       u8, TraceCodec of the stored bytes (kRaw when compression
//                 did not shrink this frame)
//     checksum    u64 little-endian, fnv1a64 over the stored bytes
//     payload     stored_size bytes
//
//   trailer (12 bytes, fixed):
//     footer_offset u64 little-endian, absolute file offset of the index
//                   frame
//     magic         "2RTD" (4 bytes)
//
// The header frame is always first and its raw payload is the trace header
// (trace_io.hpp: write_header). An event block's raw payload is a run of
// event records (trace_io.hpp: write_event_record) with the tick-delta
// baseline reset to 0, so every block is independently decodable. The index
// frame's raw payload:
//
//   total_events varint
//   last_tick    varint
//   kind_counts  varint count (= kNumTraceEventKinds), then one varint per
//                kind
//   blocks       varint count, then per block:
//                  offset     varint, delta-coded (first is absolute)
//                  events     varint, records in the block
//                  first_tick varint, delta-coded (first is absolute)
//
// Robustness contract: the trailer and index are advisory — when they are
// missing, damaged, or fail validation the reader falls back to a
// sequential frame scan, so a file whose writer died after its last
// complete frame still reads (yielding a prefix of the run). The scan also forgives a trailing remnant of at most
// trailer size (12 bytes; no complete frame is that small). A torn frame,
// a checksum mismatch, or an unknown frame kind anywhere else is a
// TraceError: blocks are individually checksummed, so whatever a
// successful read returns is bytes the writer produced. Files of the
// retired scan-only DTR1 format are rejected with a TraceError that says
// so.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/codec.hpp"
#include "trace/trace_io.hpp"

namespace dtop::trace {

inline constexpr char kTrace2Magic[4] = {'D', 'T', 'R', '2'};
inline constexpr std::uint8_t kTrace2Version = 1;

struct Dtr2Options {
  // kZstd when compiled in, else kDlz; kRaw gives an uncompressed but
  // still framed, checksummed, and indexed file.
  TraceCodec codec = default_trace_codec();
  // Events per block: the seek granularity / compression-window tradeoff.
  // Tests shrink this to force multi-block files out of small traces.
  std::uint64_t block_events = 4096;
};

// Streaming DTR2 writer: header frame on construction, events buffered
// into blocks, finish() flushes the open block and writes the index frame
// and trailer. finish() is mandatory — a file without it still *reads*
// (scan fallback) but has no index. Throws Error when the stream fails.
class Dtr2Writer {
 public:
  Dtr2Writer(std::ostream& os, const TraceHeader& header,
             Dtr2Options opts = {});
  void write(const TraceEvent& ev);
  void finish();

 private:
  struct BlockEntry {
    std::uint64_t offset = 0;
    std::uint64_t events = 0;
    Tick first_tick = 0;
  };

  void flush_block();
  // Frames `raw`, compressing with opts_.codec and falling back to raw
  // storage when compression does not shrink. Returns the frame's offset.
  std::uint64_t write_frame(std::uint8_t kind, const std::string& raw);

  std::ostream& os_;
  Dtr2Options opts_;
  std::uint64_t offset_ = 0;  // absolute file offset of the next byte
  std::string block_;         // encoded records of the open block
  std::uint64_t block_event_count_ = 0;
  Tick block_first_tick_ = 0;
  Tick block_last_tick_ = 0;  // tick-delta baseline within the open block
  Tick last_tick_ = 0;        // across blocks, for the ordering check
  std::uint64_t total_events_ = 0;
  std::array<std::uint64_t, kNumTraceEventKinds> kind_counts_{};
  std::vector<BlockEntry> index_;
  bool finished_ = false;
};

// Whole-trace convenience wrapper: frames, compresses, and indexes `trace`
// as DTR2. Flushes and throws Error on stream failure.
void write_trace_dtr2(std::ostream& os, const RecordedTrace& trace,
                      Dtr2Options opts = {});

// A trace file opened for random access. Buffers the raw bytes (so it
// works on pipes), parses the header eagerly, and decompresses event
// blocks only when a read touches them.
class TraceFile {
 public:
  // Reads the whole stream and parses the prologue, header frame and index.
  // Throws TraceError on malformed input.
  explicit TraceFile(std::istream& is);

  const TraceHeader& header() const { return header_; }
  // The writer's preferred codec (the prologue's codec byte).
  TraceCodec file_codec() const { return file_codec_; }
  // True when the footer index was present and valid; false for
  // scan-fallback reads (whose stats are computed, not trusted).
  bool indexed() const { return indexed_; }

  std::uint64_t num_events() const { return total_events_; }
  Tick last_tick() const { return last_tick_; }
  const std::array<std::uint64_t, kNumTraceEventKinds>& kind_counts() const {
    return kind_counts_;
  }
  std::size_t num_blocks() const { return blocks_.size(); }
  // Event blocks decompressed so far — the "seek reads stay lazy" test
  // hook.
  int blocks_decoded() const { return blocks_decoded_; }

  // Events [begin, begin + count) by global event index, clamped to the
  // end of the trace. Decodes only the blocks the window overlaps.
  std::vector<TraceEvent> events_in_range(std::uint64_t begin,
                                          std::uint64_t count);
  // Index of the first event with tick >= t (== num_events() when past the
  // end). Binary-searches the block index and decodes at most one block.
  std::uint64_t first_event_at_tick(Tick t);
  // The whole trace, materialized. Blocks an earlier seek decoded are
  // copied from their cache; the rest decode straight into the result and
  // are not cached, so the file never holds a second copy of the trace.
  RecordedTrace read_all();

 private:
  struct Block {
    std::uint64_t offset = 0;       // absolute file offset of the frame
    std::uint64_t first_event = 0;  // global index of its first event
    std::uint64_t events = 0;
    Tick first_tick = 0;
    bool decoded = false;
    std::vector<TraceEvent> cache;
  };

  bool try_load_index();
  void scan_frames(std::size_t events_begin);
  // Decompresses block i onto the end of `out` (cross-checked against the
  // seek index when there is one) and counts it in blocks_decoded().
  void decode_block(std::size_t i, std::vector<TraceEvent>& out);
  // Block i's events, decoded and cached on first use.
  const std::vector<TraceEvent>& block_events(std::size_t i);

  TraceHeader header_;
  TraceCodec file_codec_ = TraceCodec::kRaw;
  bool indexed_ = false;
  std::string buf_;  // the whole file; offsets are absolute
  std::vector<Block> blocks_;
  std::uint64_t total_events_ = 0;
  Tick last_tick_ = 0;
  std::array<std::uint64_t, kNumTraceEventKinds> kind_counts_{};
  int blocks_decoded_ = 0;
};

}  // namespace dtop::trace
