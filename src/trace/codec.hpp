// Block codecs for the DTR2 trace container.
//
// A DTR2 file names its codec in the header and every reader of the file
// must have it; the writer therefore only ever picks from what this build
// provides. Three codecs exist:
//
//   kRaw   identity. Always available; also the per-block fallback the
//          writer silently uses when a block's compressed form would not be
//          smaller than the raw bytes (each block frame carries its own
//          stored-codec byte, so raw blocks inside a compressed file are
//          normal).
//   kDlz   the built-in byte-oriented LZ codec (greedy LZ77 over a 64 KiB
//          window, hash-table match finding). Always available, entirely
//          self-contained, and the default when zstd was not found at
//          configure time. Trace event streams are dominated by short
//          repeating byte patterns (kind + small varint deltas), which is
//          exactly what a tiny LZ does well on.
//   kZstd  libzstd, compiled in only when CMake found zstd.h + libzstd
//          (DTOP_HAVE_ZSTD). Better ratios than kDlz at similar speed; a
//          build without zstd still *recognizes* the codec id and reports
//          "recorded with zstd, this build lacks it" instead of "corrupt".
//
// Compressed block formats are codec-defined; framing, checksums, and raw
// sizes live in the container (trace/container.hpp), so a codec here is
// just a pair of buffer transforms.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dtop::trace {

enum class TraceCodec : std::uint8_t {
  kRaw = 0,
  kDlz = 1,
  kZstd = 2,
};
inline constexpr int kNumTraceCodecs = 3;

const char* to_cstr(TraceCodec c);

// True when this build can decode (and encode) blocks of codec `c`.
bool codec_available(TraceCodec c);

// The codec `write_trace_dtr2` uses when the caller does not pick one:
// kZstd when compiled in, else kDlz.
TraceCodec default_trace_codec();

// Compresses `raw` with `c`. Requires codec_available(c). kRaw returns the
// input unchanged. The result decompresses to exactly `raw`; it is NOT
// guaranteed to be smaller (the container falls back to raw storage then).
std::string codec_compress(TraceCodec c, std::string_view raw);

// Inverse of codec_compress: expands `stored` into exactly `raw_size`
// bytes. Throws TraceError on malformed input (bad token, out-of-window
// reference, wrong output size) — the container has already checksummed
// the stored bytes, so reaching an error here means a framing bug or a
// checksum collision, but the decoder still refuses to read out of bounds.
std::string codec_decompress(TraceCodec c, std::string_view stored,
                             std::size_t raw_size);

}  // namespace dtop::trace
